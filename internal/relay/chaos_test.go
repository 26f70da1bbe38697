package relay

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/archive" // archive-backed spill stores
)

// chaosStep builds one bare (structure-free) timestep for block b: a
// deterministic float payload, so a relayed frame can be checked
// byte-for-byte against a locally recomputed merge. No structure step
// keeps the exactly-once accounting strict — structure is the one
// frame class a resumed stream legitimately re-delivers.
func chaosStep(b, seq int) *adios.Step {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(b*1000+seq*16+i) * 0.125
	}
	return &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq) * 0.1,
		Attrs: map[string]string{"mesh": "mesh"},
		Vars:  []adios.Variable{adios.NewF64("array/temperature", vals)},
	}
}

// chaosServedHub is one producer rank: a hub behind a TCP staging
// server with resumable sessions, heartbeats and liveness detection —
// the upstream tier the mid-tree relay attaches to. Each hub carries
// its own telemetry plane so session park/adopt events are journaled.
func chaosServedHub(t *testing.T, name string) (*staging.Hub, string, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(name)
	hub := staging.NewHub(nil)
	hub.SetTelemetry(tel, "rank-0")
	binder := staging.NewBinder(hub)
	srv, err := staging.ServeWith(hub, "127.0.0.1:0", binder.Resolve, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return hub, srv.Addr(), tel
}

// chaosLeaf drains one lossless consumer below the relay, resiliently:
// session + retry + redial, recording every delivered step's ordinal
// and canonical frame bytes.
type chaosLeaf struct {
	name   string
	rd     *adios.Reader
	tel    *telemetry.Telemetry
	steps  []int64
	frames [][]byte
	err    error
	count  atomic.Int64
	done   chan struct{}
}

func startChaosLeaf(t *testing.T, name, addr string) *chaosLeaf {
	t.Helper()
	rd, err := adios.OpenReaderWith(addr, adios.ReaderOptions{
		Consumer:        name,
		SessionTTL:      10 * time.Second,
		Retry:           400,
		Redial:          func() (string, error) { return addr, nil },
		LivenessTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("%s attach: %v", name, err)
	}
	tel := telemetry.New(name)
	rd.SetTelemetry(tel, "leaf", name)
	l := &chaosLeaf{name: name, rd: rd, tel: tel, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		defer rd.Close()
		for {
			st, err := rd.BeginStep()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				l.err = err
				return
			}
			l.steps = append(l.steps, st.Step)
			l.frames = append(l.frames, adios.Marshal(st))
			l.count.Add(1)
		}
	}()
	return l
}

// TestChaosRelayKillRestart is the fault-injection acceptance run: a
// 2-tier staging tree (two producer hubs → one merging mid-tier relay
// → block and spill leaves) with the mid-tier killed abruptly under
// load and replaced. Deferred trunk credits mean every step the dead
// relay had not fully delivered downstream is still parked in the
// producers' sessions; the replacement relay re-admits the leaves,
// folds their resume positions into its upstream hello, and the run
// completes with every leaf holding every step exactly once, in
// order, byte-identical to an uninterrupted merge.
func TestChaosRelayKillRestart(t *testing.T) {
	const P, N = 2, 36
	hubs := make([]*staging.Hub, P)
	prodAddrs := make([]string, P)
	prodTels := make([]*telemetry.Telemetry, P)
	for b := range hubs {
		hubs[b], prodAddrs[b], prodTels[b] = chaosServedHub(t, fmt.Sprintf("prod-%d", b))
	}

	// Reserve a fixed output address so the replacement relay serves
	// where the dead one did and the leaves' redial loop finds it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relayAddr := ln.Addr().String()
	ln.Close()

	relayOpts := func(wait time.Duration, spill string, tel *telemetry.Telemetry) Options {
		return Options{
			Name: "mid", Policy: "block", Depth: 2, OutRanks: 1,
			Listen: relayAddr, SpillDir: spill, Telemetry: tel,
			Downstream: []Downstream{
				{Spec: staging.ConsumerSpec{Name: "leaf-block", Policy: staging.Block, Depth: 2}},
				{Spec: staging.ConsumerSpec{Name: "leaf-spill", Policy: staging.Spill, Depth: 2}},
			},
			Retry:          400,
			SessionTTL:     10 * time.Second,
			Liveness:       2 * time.Second,
			WaitDownstream: wait,
			RedialUpstream: func() ([]string, error) { return prodAddrs, nil },
		}
	}

	tel1, tel2 := telemetry.New("relay-r1"), telemetry.New("relay-r2")
	r1, err := New(prodAddrs, relayOpts(0, t.TempDir(), tel1))
	if err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- r1.Run() }()

	leaves := []*chaosLeaf{
		startChaosLeaf(t, "leaf-block", relayAddr),
		startChaosLeaf(t, "leaf-spill", relayAddr),
	}

	// Load: the producers publish in lockstep; the Block trunk edge
	// makes them stall through the outage instead of losing steps.
	prodErr := make(chan error, 1)
	go func() {
		for s := 0; s < N; s++ {
			for b, h := range hubs {
				if err := h.Publish(chaosStep(b, s)); err != nil {
					prodErr <- fmt.Errorf("publish block %d step %d: %w", b, s, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
		for _, h := range hubs {
			h.Close()
		}
		prodErr <- nil
	}()

	// Let real traffic flow end to end, then crash the mid-tier:
	// connections reset, no end-of-stream drain, outstanding upstream
	// credits never returned.
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitUntil("pre-crash traffic", func() bool {
		return leaves[0].count.Load() >= 8 && leaves[1].count.Load() >= 8
	})
	r1.Kill()
	select {
	case err := <-run1:
		if err != nil {
			t.Fatalf("killed relay run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed relay never exited")
	}

	// The replacement: same identity, same output address. It waits for
	// the leaves to re-attach first, so the resume position it announces
	// upstream reflects what the subtree actually still needs.
	r2, err := New(prodAddrs, relayOpts(15*time.Second, t.TempDir(), tel2))
	if err != nil {
		t.Fatalf("replacement relay: %v", err)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- r2.Run() }()

	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		select {
		case <-l.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s still draining after the producers finished", l.name)
		}
		if l.err != nil {
			t.Fatalf("%s: %v", l.name, l.err)
		}
	}
	select {
	case err := <-run2:
		if err != nil {
			t.Fatalf("replacement relay run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replacement relay never exited")
	}

	// The uninterrupted expectation, recomputed locally: each relayed
	// step is the canonical marshal of its two source blocks merged.
	want := make([][]byte, N)
	for s := 0; s < N; s++ {
		merged, err := adios.MergeSteps([]*adios.Step{chaosStep(0, s), chaosStep(1, s)})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = adios.Marshal(merged)
	}
	for _, l := range leaves {
		if len(l.steps) != N {
			t.Fatalf("%s received %d steps, want %d exactly once (got %v)", l.name, len(l.steps), N, l.steps)
		}
		for s := 0; s < N; s++ {
			if l.steps[s] != int64(s) {
				t.Fatalf("%s position %d delivered step %d: not exactly-once-in-order (%v)", l.name, s, l.steps[s], l.steps)
			}
			if string(l.frames[s]) != string(want[s]) {
				t.Fatalf("%s step %d: bytes differ from the uninterrupted merge", l.name, s)
			}
		}
		if l.rd.Reconnects() == 0 {
			t.Errorf("%s never reconnected — the crash did not exercise the retry path", l.name)
		}
	}
	if r1.Status().Steps >= N {
		t.Errorf("first relay relayed all %d steps — the kill landed too late to prove recovery", N)
	}
	if st := r2.Status(); st.CreditsSent == 0 {
		t.Errorf("replacement relay sent no deferred credits: %+v", st)
	}

	// The recovery journals tell the same story as the data plane, and
	// the ordinals line up: the replacement's rebind event carries the
	// subtree's resume position, and every producer's adoption event
	// resumed its session at or past that ordinal.
	findEvent := func(tel *telemetry.Telemetry, kind, subject string) *telemetry.Event {
		for _, ev := range tel.Events().Snapshot() {
			if ev.Kind == kind && ev.Subject == subject {
				return &ev
			}
		}
		return nil
	}
	kill := findEvent(tel1, telemetry.EventRelayKill, "mid")
	if kill == nil {
		t.Fatalf("killed relay journaled no %s event: %+v", telemetry.EventRelayKill, tel1.Events().Snapshot())
	}
	rebind := findEvent(tel2, telemetry.EventRelayRebind, "mid")
	if rebind == nil {
		t.Fatalf("replacement relay journaled no %s event: %+v", telemetry.EventRelayRebind, tel2.Events().Snapshot())
	}
	// The leaves drained >= 8 steps before the kill, so the announced
	// resume ordinal sits past them; the kill landing mid-run keeps it
	// below N.
	if rebind.Step < 8 || rebind.Step >= N {
		t.Errorf("rebind resumed at step %d, want within [8, %d)", rebind.Step, N)
	}
	for b, tel := range prodTels {
		if ev := findEvent(tel, telemetry.EventSessionParked, "mid"); ev == nil {
			t.Errorf("producer %d never journaled the dead relay's session park: %+v", b, tel.Events().Snapshot())
		}
		adopt := findEvent(tel, telemetry.EventSessionAdopted, "mid")
		if adopt == nil {
			t.Fatalf("producer %d journaled no %s event: %+v", b, telemetry.EventSessionAdopted, tel.Events().Snapshot())
		}
		// Adoption resumes at max(producer cursor, announced resume):
		// never behind the subtree's position, never past the run.
		if adopt.Step < rebind.Step || adopt.Step > N {
			t.Errorf("producer %d adopted at step %d, not correlated with rebind at %d", b, adopt.Step, rebind.Step)
		}
	}
	for _, l := range leaves {
		rec := findEvent(l.tel, telemetry.EventReconnect, l.name)
		if rec == nil {
			t.Errorf("%s journaled no %s event: %+v", l.name, telemetry.EventReconnect, l.tel.Events().Snapshot())
		} else if rec.Step < 8 || rec.Step > int64(N) {
			t.Errorf("%s reconnect resumed at step %d, want within [8, %d]", l.name, rec.Step, N)
		}
	}
}
