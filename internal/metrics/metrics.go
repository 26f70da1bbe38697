// Package metrics provides the instrumentation substrate used by every
// experiment in the reproduction: named phase timers, logical memory
// accounting with per-category high-water marks, and storage counters.
//
// Real process RSS is meaningless here because all simulated MPI ranks
// share one Go process, so memory is accounted logically: every
// subsystem (solver fields, device mirrors, VTK copies, SST queues)
// registers its allocations with the rank's Accountant, mirroring how
// the paper reports the aggregate memory high-water mark across ranks.
//
// # Locking contract
//
// Accountant, Timer, StorageCounter and Straggler share one scheme:
// a single sync.Mutex per instrument guards all internal state, every
// exported method takes it for the full call, and no method ever calls
// another exported method while holding it (so there is no lock
// nesting and no self-deadlock). Reads return copies (Snapshot, Stats)
// or scalars — never references into guarded state — so callers can
// hold results across further mutations. A caller times a phase
// outside the lock and charges it with Add, so a phase being timed
// never holds the mutex. All
// methods are nil-receiver safe: a nil instrument is a disabled one.
// The telemetry exporter relies on this contract — its scrape-time
// samplers call Snapshot/Stats from the HTTP serving goroutine while
// ranks are mid-step. TestInstrumentsConcurrent hammers exactly that
// interleaving under -race.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Accountant tracks logical memory usage by category and maintains
// high-water marks. It is safe for concurrent use.
type Accountant struct {
	mu      sync.Mutex
	cur     int64
	peak    int64
	byCat   map[string]int64
	peakCat map[string]int64
}

// NewAccountant returns an empty Accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		byCat:   make(map[string]int64),
		peakCat: make(map[string]int64),
	}
}

// Alloc records an allocation of n bytes under the given category.
// Negative n is treated as a free.
func (a *Accountant) Alloc(category string, n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur += n
	a.byCat[category] += n
	if a.cur > a.peak {
		a.peak = a.cur
	}
	if c := a.byCat[category]; c > a.peakCat[category] {
		a.peakCat[category] = c
	}
}

// Free records a release of n bytes under the given category.
func (a *Accountant) Free(category string, n int64) { a.Alloc(category, -n) }

// InUse reports the bytes currently accounted.
func (a *Accountant) InUse() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// Peak reports the total high-water mark in bytes.
func (a *Accountant) Peak() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// CategoryInUse reports the bytes currently accounted to one category.
func (a *Accountant) CategoryInUse(category string) int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byCat[category]
}

// CategoryPeak reports the high-water mark of one category.
func (a *Accountant) CategoryPeak(category string) int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakCat[category]
}

// Categories returns the sorted list of categories seen so far.
func (a *Accountant) Categories() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cats := make([]string, 0, len(a.byCat))
	for c := range a.byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
}

// Reset clears all counters and high-water marks.
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur, a.peak = 0, 0
	a.byCat = make(map[string]int64)
	a.peakCat = make(map[string]int64)
}

// PhaseStat is a snapshot of one named timer phase.
type PhaseStat struct {
	Total time.Duration
	Count int
}

// Mean returns the mean duration per invocation, or zero if never run.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Timer accumulates wall-clock time per named phase.
// It is safe for concurrent use.
type Timer struct {
	mu     sync.Mutex
	phases map[string]*PhaseStat
}

// NewTimer returns an empty Timer.
func NewTimer() *Timer {
	return &Timer{phases: make(map[string]*PhaseStat)}
}

// Add accumulates d under the named phase.
func (t *Timer) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.phases[name]
	if p == nil {
		p = &PhaseStat{}
		t.phases[name] = p
	}
	p.Total += d
	p.Count++
}

// Total reports the accumulated time of one phase.
func (t *Timer) Total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.phases[name]; p != nil {
		return p.Total
	}
	return 0
}

// Snapshot returns a copy of all phase statistics.
func (t *Timer) Snapshot() map[string]PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]PhaseStat, len(t.phases))
	for k, v := range t.phases {
		out[k] = *v
	}
	return out
}

// StorageCounter tracks bytes and files written by a configuration,
// reproducing the paper's storage-economy comparison (6.5 MB of
// rendered images vs 19 GB of checkpoints).
type StorageCounter struct {
	mu    sync.Mutex
	bytes int64
	files int
}

// NewStorageCounter returns a zeroed StorageCounter.
func NewStorageCounter() *StorageCounter { return &StorageCounter{} }

// AddFile records one file of n bytes.
func (s *StorageCounter) AddFile(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes += n
	s.files++
}

// Bytes reports total bytes written.
func (s *StorageCounter) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Files reports the number of files written.
func (s *StorageCounter) Files() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files
}

// HumanBytes formats a byte count with binary-prefix units, e.g. "6.5 MiB".
func HumanBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
