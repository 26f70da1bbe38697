package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Straggler accounts for rank skew at a per-step barrier: each rank
// records how long it waited for the slowest peer to arrive. A rank
// that waits little is the straggler (the others were waiting for
// it); a rank that waits much is starved by its peers. The parallel
// endpoint runtime uses this to attribute time-to-image overhead to
// uneven shard cost or skewed stream delivery. Safe for concurrent
// use — barrier waits are recorded from every rank's goroutine.
type Straggler struct {
	mu    sync.Mutex
	total []time.Duration
	max   []time.Duration
	count []int
}

// NewStraggler returns a tracker for the given number of ranks.
func NewStraggler(ranks int) *Straggler {
	return &Straggler{
		total: make([]time.Duration, ranks),
		max:   make([]time.Duration, ranks),
		count: make([]int, ranks),
	}
}

// Record accumulates one barrier wait for a rank.
func (s *Straggler) Record(rank int, wait time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total[rank] += wait
	if wait > s.max[rank] {
		s.max[rank] = wait
	}
	s.count[rank]++
}

// RankWait is one rank's accumulated barrier-wait record.
type RankWait struct {
	Rank  int
	Total time.Duration // sum of waits across steps
	Max   time.Duration // worst single-step wait
	Count int           // barriers recorded
}

// Mean is the mean wait per barrier.
func (r RankWait) Mean() time.Duration {
	if r.Count == 0 {
		return 0
	}
	return r.Total / time.Duration(r.Count)
}

// StragglerStats is a snapshot of all ranks' barrier waits.
type StragglerStats struct {
	Ranks []RankWait
}

// MaxWait reports the largest per-rank total wait — the time the most
// starved rank spent idle at barriers.
func (st StragglerStats) MaxWait() time.Duration {
	var max time.Duration
	for _, r := range st.Ranks {
		if r.Total > max {
			max = r.Total
		}
	}
	return max
}

// Stats snapshots the per-rank records.
func (s *Straggler) Stats() StragglerStats {
	if s == nil {
		return StragglerStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StragglerStats{Ranks: make([]RankWait, len(s.total))}
	for i := range s.total {
		out.Ranks[i] = RankWait{Rank: i, Total: s.total[i], Max: s.max[i], Count: s.count[i]}
	}
	return out
}

// Render writes the per-rank barrier-wait table.
func (st StragglerStats) Render(w io.Writer) {
	t := NewTable("barrier waits per endpoint rank",
		"rank", "barriers", "total wait [ms]", "mean [ms]", "max [ms]")
	for _, r := range st.Ranks {
		t.AddRow(r.Rank, r.Count,
			fmt.Sprintf("%.2f", float64(r.Total.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(r.Mean().Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(r.Max.Microseconds())/1000))
	}
	t.Render(w)
}
