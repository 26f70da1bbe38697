package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
)

const (
	testBlocks = 4 // hubs, one block of the mesh each
	testSteps  = 5
)

// blockStep is step seq of block b in the scripted stream: a unit hex
// cell at x in [b, b+1] with one point array; step 0 carries the
// structure. A synthetic stream rather than adiostest's solved pb146
// steps: those carry no geometry, and the run is about attachment.
func blockStep(b, seq int) *adios.Step {
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64(b*100+seq*10+i) * 0.01
	}
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq) * 0.1,
		Attrs: map[string]string{"mesh": "mesh"},
		Vars:  []adios.Variable{adios.NewF64("array/temperature", vals)},
	}
	if seq == 0 {
		x0 := float64(b)
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", []float64{
				x0, 0, 0, x0 + 1, 0, 0, x0 + 1, 1, 0, x0, 1, 0,
				x0, 0, 1, x0 + 1, 0, 1, x0 + 1, 1, 1, x0, 1, 1,
			}, 8, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	return s
}

// probeConfig samples one point inside every block, so the series is
// a reduction across however many endpoint ranks hold the blocks.
const probeConfig = `<sensei>
  <analysis type="probe" arrays="temperature" points="0.5,0.5,0.5; 1.25,0.5,0.5; 2.5,0.25,0.5; 3.75,0.5,0.75"/>
</sensei>`

// serveScript serves testBlocks hubs on loopback — each granting the
// session a -retry reader asks for, so it can resume — publishes the
// contact file, and, once `readers` handshakes have completed, so that
// no consumer attaches mid-stream, feeds every hub its block's steps in
// lockstep and closes them. With cut, hub 0 is reached through a
// faultnet proxy that resets its connection in the middle of step 2's
// frame. The returned channel reports the feed, the counter every
// accepted handshake.
func serveScript(t *testing.T, ctx context.Context, contact string, readers int, cut bool) (<-chan error, *atomic.Int64) {
	t.Helper()
	hubs := make([]*staging.Hub, testBlocks)
	addrs := make([]string, testBlocks)
	attached := make(chan struct{}, readers+1) // one send per handshake, the resume after a cut included
	handshakes := new(atomic.Int64)
	for b := range hubs {
		hubs[b] = staging.NewHub(nil)
		binder := staging.NewBinder(hubs[b])
		srv, err := staging.ServeWith(hubs[b], "127.0.0.1:0", func(req staging.SubscribeRequest) (*staging.Subscription, error) {
			sub, err := binder.Resolve(req)
			if err == nil {
				handshakes.Add(1)
				attached <- struct{}{}
			}
			return sub, err
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[b] = srv.Addr()
	}
	link := faultnet.NewProfile()
	if cut {
		px, err := faultnet.NewProxy("127.0.0.1:0", addrs[0], link)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		addrs[0] = px.Addr()
	}
	if err := (adios.Contact{Name: contact}).Write(addrs, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			for _, h := range hubs {
				h.Close()
			}
		}()
		for i := 0; i < readers; i++ {
			select {
			case <-attached:
			case <-ctx.Done():
				done <- fmt.Errorf("%d of %d readers attached: %w", i, readers, ctx.Err())
				return
			}
		}
		if cut {
			frame := func(seq int) int64 { return int64(len(adios.Marshal(blockStep(0, seq)))) }
			link.ResetAfterBytes(frame(0) + frame(1) + frame(2)/2)
		}
		for seq := 0; seq < testSteps; seq++ {
			for b, h := range hubs {
				if err := h.Publish(blockStep(b, seq)); err != nil {
					done <- fmt.Errorf("publish block %d step %d: %w", b, seq, err)
					return
				}
			}
		}
		done <- nil
	}()
	return done, handshakes
}

// runShape drives run() in-process with the probe configuration and
// the given mode flags against a freshly served scripted stream and
// returns the output directory and run's error.
func runShape(t *testing.T, readers int, cut bool, flags ...string) (string, error) {
	t.Helper()
	outs, err := runReplicas(t, readers, cut, 0, flags...)
	return outs[0], err
}

// runReplicas is runShape for n endpoints at once (one when n is 0),
// the way n endpoint processes attach as replicas: endpoint i adds
// "-consumer ep-i:block:2" to flags and writes to its own directory.
func runReplicas(t *testing.T, readers int, cut bool, n int, flags ...string) ([]string, error) {
	t.Helper()
	config := filepath.Join(t.TempDir(), "endpoint.xml")
	if err := os.WriteFile(config, []byte(probeConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	flags = append([]string{"-config", config}, flags...)
	if n == 0 {
		return runEndpoints(t, nil, readers, cut, flags)
	}
	endpoints := make([][]string, n)
	for i := range endpoints {
		endpoints[i] = append(slices.Clip(flags), "-consumer", fmt.Sprintf("ep-%d:block:2", i))
	}
	return runEndpoints(t, nil, readers, cut, endpoints...)
}

// runScript is runShape without a configuration of its own, on the
// given telemetry plane.
func runScript(t *testing.T, tel *telemetry.Telemetry, readers int, cut bool, flags ...string) (string, error) {
	t.Helper()
	outs, err := runEndpoints(t, tel, readers, cut, flags)
	return outs[0], err
}

// runEndpoints runs one endpoint per flag set concurrently against one
// freshly served scripted stream and returns their output directories
// and the first run error.
func runEndpoints(t *testing.T, tel *telemetry.Telemetry, readers int, cut bool, endpoints ...[]string) ([]string, error) {
	t.Helper()
	dir := t.TempDir()
	contact := filepath.Join(dir, "contact.txt")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fed, handshakes := serveScript(t, ctx, contact, readers, cut)
	outs := make([]string, len(endpoints))
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, flags := range endpoints {
		outs[i] = filepath.Join(dir, fmt.Sprintf("out-%d", i))
		o, err := parseArgs(append([]string{"-contact", contact, "-out", outs[i], "-timeout", "10s"}, flags...))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(o, tel)
		}()
	}
	wg.Wait()
	runErr := errors.Join(errs...)
	if err := <-fed; err != nil {
		t.Fatalf("feeding %v: %v", endpoints, err)
	}
	if n := int(handshakes.Load()); cut && runErr == nil && n != readers+1 {
		t.Fatalf("%d handshakes, want %d and one session resume: the reset never cut a connection", n, readers)
	}
	return outs, runErr
}

// TestRunShapes: the attach shapes — R ranks direct or staged, N
// endpoints as replicas, and their product — are one runtime under one
// dial rule, so over the same stream each processes the same ordinals
// and reduces to the same probe series, byte for byte (two replicas
// write it twice); so does a 2-rank -retry run one of whose connections
// is reset mid-stream and resumes its session. More ranks than streams
// is refused by naming the relay.
func TestRunShapes(t *testing.T) {
	var want []byte
	for _, tc := range []struct {
		name     string
		flags    []string
		replicas int  // endpoints run at once, each its own staged consumer; 0 runs flags alone
		readers  int  // handshakes across the four hubs before the feed starts
		cut      bool // hub 0's connection is reset mid-stream
	}{
		{"direct", []string{"-ranks", "2"}, 0, 4, false},
		{"staged", []string{"-consumer", "ep:block:2", "-ranks", "2"}, 0, 4, false},
		{"replicas", nil, 2, 8, false},
		{"replicas of ranks", []string{"-ranks", "2"}, 2, 8, false},
		{"staged, session resumed over a reset", []string{"-consumer", "ep:block:2", "-ranks", "2", "-retry", "20", "-session-ttl", "10s"}, 0, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs, err := runReplicas(t, tc.readers, tc.cut, tc.replicas, tc.flags...)
			if err != nil {
				t.Fatalf("run %v: %v", tc.flags, err)
			}
			for _, out := range outs {
				checkShape(t, out, &want)
			}
		})
	}
	t.Run("more ranks than streams", func(t *testing.T) {
		_, err := runShape(t, 0, false, "-ranks", "5")
		if err == nil || !strings.Contains(err.Error(), "relay -out-ranks") {
			t.Fatalf("-ranks 5 against %d hubs: err = %v, want a refusal naming the relay", testBlocks, err)
		}
	})
}

// checkShape requires out to hold one probe row per step in order and
// a summary of every step that counts probes.csv as its one file, and
// its probes.csv to equal *want (which the first call sets).
func checkShape(t *testing.T, out string, want *[]byte) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(out, "probes.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(got)), "\n")[1:] // header first
	if len(rows) != testSteps {
		t.Fatalf("%d rows, want one per step (%d):\n%s", len(rows), testSteps, got)
	}
	for seq, row := range rows {
		if !strings.HasPrefix(row, fmt.Sprintf("%d,", seq)) {
			t.Errorf("row %d is step %q, want ordinal %d", seq, row, seq)
		}
	}
	if *want == nil {
		*want = got
	}
	if !bytes.Equal(got, *want) {
		t.Errorf("probes.csv differs from the direct shape's:\n%s\nwant:\n%s", got, *want)
	}
	js, err := os.ReadFile(filepath.Join(out, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Steps, Files int
		Bytes        int64
	}
	if err := json.Unmarshal(js, &sum); err != nil || sum.Steps != testSteps {
		t.Errorf("summary.json %s (%v): want %d steps", js, err, testSteps)
	}
	if sum.Files != 1 || sum.Bytes != int64(len(got)) {
		t.Errorf("summary.json %s counts %d files of %d bytes, want probes.csv alone: 1 of %d", js, sum.Files, sum.Bytes, len(got))
	}
}

// TestHelloSessionRule: with -retry every reader of every rank redials
// and asks for a resumable session, whatever the shape; without it none
// does.
func TestHelloSessionRule(t *testing.T) {
	for _, flags := range [][]string{
		{"-ranks", "2"},
		{"-consumer", "ep:block:2", "-ranks", "2"},
	} {
		for _, retry := range []string{"0", "3"} {
			o, err := parseArgs(append([]string{"-retry", retry}, flags...))
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < testBlocks; src++ {
				h := o.hello(src)
				if want := retry != "0"; (h.Retry > 0) != want || (h.Redial != nil) != want {
					t.Errorf("%v -retry %s, source %d: hello retry %d redial %v, want both %v",
						flags, retry, src, h.Retry, h.Redial != nil, want)
				}
			}
		}
	}
}

// TestRecordEveryRank: each rank dials its own address range, so the
// archive must hold every contact address's stream — one rank-NNNN per
// hub, frames as served — not rank 0's half.
func TestRecordEveryRank(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "rec")
	if _, err := runShape(t, 4, false, "-consumer", "ep:block:2", "-ranks", "2", "-record", rec); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, rec)
}

// TestRecordPureSink: -record with no -config is the recording tool —
// what `archive record` was: a block consumer that runs no analysis,
// archives every source's frames as served, and registers each archive
// on the telemetry plane as "archive/rank-N".
func TestRecordPureSink(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "rec")
	tel := telemetry.New("sensei-endpoint")
	if _, err := runScript(t, tel, 4, false, "-consumer", "archive:block:8", "-record", rec); err != nil {
		t.Fatal(err)
	}
	checkRecording(t, rec)
	w := httptest.NewRecorder()
	tel.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	for b := 0; b < testBlocks; b++ {
		if section := fmt.Sprintf(`"archive/rank-%d"`, b); !strings.Contains(w.Body.String(), section) {
			t.Errorf("/statusz has no %s section:\n%s", section, w.Body)
		}
	}
}

// checkRecording asserts rec holds one rank-NNNN archive per hub, each
// with every step's frame byte-equal to the served one.
func checkRecording(t *testing.T, rec string) {
	t.Helper()
	dirs, err := archive.RankDirs(rec)
	if err != nil || len(dirs) != testBlocks {
		t.Fatalf("recorded %v (%v), want %d rank archives", dirs, err, testBlocks)
	}
	for b := 0; b < testBlocks; b++ {
		a, err := archive.Open(archive.RankDir(rec, b), archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != testSteps {
			t.Errorf("block %d: %d recorded steps, want %d", b, a.Len(), testSteps)
		}
		for seq := 0; seq < a.Len(); seq++ {
			frame, err := a.ReadFrameInto(int64(seq), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, adios.Marshal(blockStep(b, seq))) {
				t.Errorf("block %d step %d: recorded frame is not the served one", b, seq)
			}
		}
		if err := a.Close(); err != nil {
			t.Error(err)
		}
	}
}
