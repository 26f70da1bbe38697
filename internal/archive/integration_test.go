package archive

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
)

// TestXMLSpillAttribute exercises the full configuration path: a
// staging analysis with spill="dir" and a pre-declared spill
// consumer, backed by the archive opener this package registers.
func TestXMLSpillAttribute(t *testing.T) {
	dir := t.TempDir()
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
	}
	an, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"spill":     dir,
		"consumers": "slow:spill:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := an.(*staging.Adaptor)
	const steps = 12
	for s := 0; s < steps; s++ {
		if err := ad.Hub().Publish(hexStep(int64(s + 1))); err != nil {
			t.Fatal(err)
		}
	}
	// Publishing far past the depth-2 window must have demoted steps
	// into an archive under dir.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sa, err := Open(filepath.Join(dir, "rank-0000", "slow"), Options{ReadOnly: true}); err == nil {
			n := sa.Len()
			sa.Close()
			if n > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("spill archive never materialized under the XML spill dir")
		}
		time.Sleep(time.Millisecond)
	}
	// The slow consumer still drains everything, in order.
	r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := 0
	go ad.Finalize() //nolint:errcheck // close the hub so the drain ends in EOF
	for {
		st, err := r.BeginStep()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Step) != got+1 {
			t.Fatalf("step %d delivered out of order as %d", got+1, st.Step)
		}
		got++
	}
	if got != steps {
		t.Fatalf("spill consumer drained %d of %d steps", got, steps)
	}
}

// TestAttachAnalysisRecordsDirectStream: -record on a direct ("adios")
// stream records through the same hub consumer as on a staging one —
// every step the reader received is in the archive, byte for byte.
func TestAttachAnalysisRecordsDirectStream(t *testing.T) {
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
	}
	ca := sensei.NewConfigurableAnalysis(ctx)
	if err := ca.InitializeXML([]byte(`<sensei><analysis type="adios" queue="4"/></sensei>`)); err != nil {
		t.Fatal(err)
	}
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	finish, err := AttachAnalysis(ca, a)
	if err != nil {
		t.Fatal(err)
	}
	ad := ca.FindAdaptor("adios").(*staging.Adaptor)
	r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const steps = 5
	go func() {
		for s := 0; s < steps; s++ {
			ad.Hub().Publish(hexStep(int64(s))) //nolint:errcheck // a failure shows as a short stream
		}
		ca.Finalize() //nolint:errcheck
	}()
	var received [][]byte
	for {
		st, err := r.BeginStep()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		received = append(received, adios.Marshal(st))
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if len(received) != steps || a.Len() != steps {
		t.Fatalf("reader got %d steps, archive holds %d, want %d each", len(received), a.Len(), steps)
	}
	for id, want := range received {
		got, err := a.ReadFrameInto(int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d differs from the frame the reader received", id)
		}
	}
}
