package archive

import (
	"fmt"
	"path/filepath"

	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
)

func init() {
	// Register the archive-backed spill opener: a hub configured with
	// a spill directory (SetSpillDir, or the staging XML `spill`
	// attribute) demotes each spill consumer's evicted steps into its
	// own replayable archive under that directory.
	staging.RegisterSpillOpener(func(dir, consumer string) (staging.SpillStore, error) {
		return Open(filepath.Join(dir, consumer), Options{})
	})
}

// HubRecorder is a recording sink attached to a staging hub: a
// dedicated consumer that appends every published step's shared wire
// frame to an archive. The hub marshals each frame once for all
// consumers, so recording rides the existing marshal — zero
// re-encode, byte-identical frames on disk.
type HubRecorder struct {
	cons *staging.Consumer
	a    *Archive

	done chan struct{}
	err  error
}

// RecordHub subscribes a recording consumer (Block policy: recording
// is lossless by definition) and pumps frames into the archive in the
// background. depth bounds how far the disk may lag the producer
// before backpressure applies (<= 0 selects 8 — deep enough that
// bursts hide behind slower consumers, bounded enough that memory
// stays capped). Close the hub to end the recording, then Wait.
func RecordHub(hub *staging.Hub, name string, depth int, a *Archive) (*HubRecorder, error) {
	if name == "" {
		name = "__archive"
	}
	if depth <= 0 {
		depth = 8
	}
	cons, err := hub.Subscribe(name, staging.Block, depth)
	if err != nil {
		return nil, err
	}
	r := &HubRecorder{cons: cons, a: a, done: make(chan struct{})}
	go r.pump()
	return r, nil
}

func (r *HubRecorder) pump() {
	defer close(r.done)
	for {
		ref, err := r.cons.Next()
		if err != nil {
			// io.EOF is the clean end; a closed consumer means the
			// recording was abandoned — neither is a recording error.
			return
		}
		_, aerr := r.a.AppendFrame(ref.Frame())
		ref.Release()
		if aerr != nil {
			r.err = aerr
			r.cons.Close() // stop consuming; the producer must not block on a dead disk
			return
		}
	}
}

// Steps reports how many steps have been recorded so far.
func (r *HubRecorder) Steps() int { return r.a.Len() }

// Wait blocks until the recording pump has drained (close the hub
// first) and returns the first append error, if any.
func (r *HubRecorder) Wait() error {
	<-r.done
	return r.err
}

// AttachAnalysis wires recording into an already-configured analysis:
// the hub of its "staging" or "adios" adaptor gets a recording
// consumer. Returns a finish func to call after the analysis is
// finalized (it drains the hub recorder and reports append errors; the
// caller still owns closing the archive). Errors if the configuration
// has neither adaptor — there is no stream to record.
func AttachAnalysis(ca *sensei.ConfigurableAnalysis, a *Archive) (finish func() error, err error) {
	for _, typ := range []string{"staging", "adios"} {
		if ad, ok := ca.FindAdaptor(typ).(*staging.Adaptor); ok {
			rec, err := RecordHub(ad.Hub(), "", 0, a)
			if err != nil {
				return nil, err
			}
			return rec.Wait, nil
		}
	}
	return nil, fmt.Errorf("archive: nothing to record: configuration has no staging or adios analysis")
}
