package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestInstrumentsConcurrent hammers every instrument from writer
// goroutines while reader goroutines snapshot concurrently — the exact
// interleaving the telemetry exporter's scrape-time samplers produce
// against live ranks. Run under -race this validates the documented
// locking contract; the final assertions catch lost updates.
func TestInstrumentsConcurrent(t *testing.T) {
	const (
		writers = 8
		iters   = 500
	)
	timer := NewTimer()
	acct := NewAccountant()
	storage := NewStorageCounter()
	strag := NewStraggler(writers)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := timer.Snapshot()
				for _, p := range snap {
					_ = p.Mean()
				}
				_ = acct.InUse()
				_ = acct.Peak()
				for _, c := range acct.Categories() {
					_ = acct.CategoryPeak(c)
				}
				_ = storage.Bytes()
				_ = storage.Files()
				_ = strag.Stats()
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < iters; i++ {
				begin := time.Now()
				timer.Add("other", time.Microsecond)
				timer.Add("phase", time.Since(begin))
				acct.Alloc("cat", 64)
				acct.Free("cat", 64)
				storage.AddFile(1)
				strag.Record(w, time.Microsecond)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := timer.Snapshot()["phase"].Count; got != writers*iters {
		t.Errorf("timer phase count = %d, want %d", got, writers*iters)
	}
	if got := timer.Snapshot()["other"].Count; got != writers*iters {
		t.Errorf("timer other count = %d, want %d", got, writers*iters)
	}
	if got := acct.InUse(); got != 0 {
		t.Errorf("accountant in-use = %d after matched alloc/free, want 0", got)
	}
	if got := storage.Files(); got != writers*iters {
		t.Errorf("storage files = %d, want %d", got, writers*iters)
	}
	st := strag.Stats()
	for _, rw := range st.Ranks {
		if rw.Count != iters {
			t.Errorf("straggler rank %d count = %d, want %d", rw.Rank, rw.Count, iters)
		}
	}
}
