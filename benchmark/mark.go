package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"nekrs-sensei/internal/sensei"
)

// consumerLog is what one consumer rank (an in situ sim rank, an
// endpoint-group rank, a leaf) saw, in arrival order: the ordinal of
// each executed step, and when the marker analyses listed before and
// after its real analyses ran. Written by one goroutine, read after
// that goroutine has finished.
type consumerLog struct {
	ord  []int64
	pre  []time.Time
	post []time.Time
}

// markSink collects the logs of one consumer group, one per rank.
type markSink struct {
	logs []*consumerLog
	// every, when non-nil, runs on rank 0 after each post marker (the
	// traced pass snapshots the telemetry rings from it).
	every func(n int)
	// hists holds what a single-rank histogram leaf reduced, per array
	// in arrival order (see histCheck).
	hists map[string][]histogramResult
}

func newMarkSink(ranks int) *markSink {
	s := &markSink{logs: make([]*consumerLog, ranks), hists: map[string][]histogramResult{}}
	for i := range s.logs {
		s.logs[i] = &consumerLog{}
	}
	return s
}

// sinks is the registration table the XML-configured marker analyses
// resolve their sink attribute against.
var (
	sinksMu sync.Mutex
	sinks   = map[string]*markSink{}
	sinkSeq int
)

// registerSink makes a sink reachable from analysis XML and returns
// its id; release it when the pipeline is torn down.
func registerSink(s *markSink) (id string, release func()) {
	sinksMu.Lock()
	defer sinksMu.Unlock()
	sinkSeq++
	id = strconv.Itoa(sinkSeq)
	sinks[id] = s
	return id, func() {
		sinksMu.Lock()
		delete(sinks, id)
		sinksMu.Unlock()
	}
}

func lookupSink(id string) (*markSink, error) {
	sinksMu.Lock()
	defer sinksMu.Unlock()
	s := sinks[id]
	if s == nil {
		return nil, fmt.Errorf("bench-mark: unknown sink %q", id)
	}
	return s, nil
}

// marker is the "bench-mark" analysis: it requires no data and only
// records when it ran. Listed before and after the real analyses in
// the XML, a pair brackets exactly what the planner executes between
// them — the catalyst render in situ, the whole analysis set at a
// leaf — from outside those packages.
type marker struct {
	log  *consumerLog
	post bool
	sink *markSink
	rank int
}

func init() {
	sensei.Register("bench-mark", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		sink, err := lookupSink(attrs["sink"])
		if err != nil {
			return nil, err
		}
		rank := ctx.Comm.Rank()
		if rank >= len(sink.logs) {
			return nil, fmt.Errorf("bench-mark: rank %d beyond sink of %d", rank, len(sink.logs))
		}
		return &marker{log: sink.logs[rank], post: attrs["at"] == "post", sink: sink, rank: rank}, nil
	})
}

func (m *marker) Describe() sensei.Requirements { return sensei.NoRequirements() }

func (m *marker) Execute(st *sensei.Step) (bool, error) {
	now := time.Now()
	if !m.post {
		m.log.ord = append(m.log.ord, int64(st.TimeStep()))
		m.log.pre = append(m.log.pre, now)
		return false, nil
	}
	m.log.post = append(m.log.post, now)
	if m.rank == 0 && m.sink.every != nil {
		m.sink.every(len(m.log.post))
	}
	return false, nil
}

func (m *marker) Finalize() error { return nil }

// markedXML wraps analysis elements between a pre and a post marker.
func markedXML(sinkID, inner string) string {
	return fmt.Sprintf(`<sensei>
  <analysis type="bench-mark" sink="%s" at="pre"/>
%s
  <analysis type="bench-mark" sink="%s" at="post"/>
</sensei>`, sinkID, inner, sinkID)
}

// resultEnds returns, per ordinal 1..n, when the slowest rank of the
// slowest sink finished it (zero where some rank never saw it).
func resultEnds(n int, sinks ...*markSink) []time.Time {
	out := make([]time.Time, n)
	seen := make([]int, n)
	ranks := 0
	for _, s := range sinks {
		for _, l := range s.logs {
			ranks++
			for i, ord := range l.ord {
				if ord < 1 || int(ord) > n || i >= len(l.post) {
					continue
				}
				seen[ord-1]++
				if l.post[i].After(out[ord-1]) {
					out[ord-1] = l.post[i]
				}
			}
		}
	}
	for i := range out {
		if seen[i] != ranks {
			out[i] = time.Time{}
		}
	}
	return out
}

// histCheck is the "bench-hist" analysis: the real sensei.Histogram,
// with each step's reduced result kept in the leaf's sink for the
// correctness check.
type histCheck struct {
	*sensei.Histogram
	array string
	sink  *markSink
}

func init() {
	sensei.Register("bench-hist", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		sink, err := lookupSink(attrs["sink"])
		if err != nil {
			return nil, err
		}
		if ctx.Comm.Size() != 1 {
			return nil, fmt.Errorf("bench-hist: single-rank leaves only")
		}
		bins, err := strconv.Atoi(attrs["bins"])
		if err != nil || bins < 1 {
			return nil, fmt.Errorf("bench-hist: bad bins %q", attrs["bins"])
		}
		return &histCheck{Histogram: sensei.NewHistogram(ctx, "mesh", attrs["array"], bins),
			array: attrs["array"], sink: sink}, nil
	})
}

func (h *histCheck) Execute(st *sensei.Step) (bool, error) {
	stop, err := h.Histogram.Execute(st)
	if err != nil {
		return stop, err
	}
	edges, counts := h.Last()
	h.sink.hists[h.array] = append(h.sink.hists[h.array], histogramResult{
		lo: edges[0], hi: edges[len(edges)-1], counts: append([]int64(nil), counts...)})
	return stop, nil
}
