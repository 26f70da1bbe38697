package archive

import (
	"fmt"
	"io"

	"nekrs-sensei/internal/adios"
)

// Source walks an archive as a step stream: it satisfies the
// intransit.StepSource seam (BeginStep until io.EOF) and the
// StepRecycler extension (decode-into-reuse), so an endpoint runtime
// consumes a recorded run exactly like a live SST or staging stream —
// the programmatic post hoc path that needs no network at all.
type Source struct {
	a   *Archive
	ids []int64
	pos int

	from, to int64    // step-range query
	arrays   []string // array-subset query, nil = everything

	buf   []byte // grow-only frame read scratch
	spare *adios.Step
}

// Select resolves a sim-step range query against the index: record
// ordinals of every step with from <= Step <= to (negative bounds are
// open). Structure-carrying records are always included — consumers
// cannot reconstruct the grid without them — and one outside the range
// is read as its structure alone, which an endpoint caches without
// analysing it.
func (a *Archive) Select(from, to int64) []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var ids []int64
	for i := range a.index {
		si := &a.index[i]
		if si.Structure || si.inRange(from, to) {
			ids = append(ids, si.ID)
		}
	}
	return ids
}

// Source opens a step stream over the selected range, shipping only
// the requested arrays (nil = all; subsets are spliced from the
// index, so unrequested payloads are never read from disk). Each
// Source is an independent cursor; use one per consumer goroutine.
func (a *Archive) Source(from, to int64, arrays []string) *Source {
	return &Source{a: a, ids: a.Select(from, to), from: from, to: to, arrays: arrays}
}

// Len reports the number of steps this source will deliver.
func (s *Source) Len() int { return len(s.ids) }

// BeginStep decodes and returns the next selected step; io.EOF after
// the last one. The returned step reuses recycled storage when the
// caller hands steps back with Recycle.
func (s *Source) BeginStep() (*adios.Step, error) {
	if s.pos >= len(s.ids) {
		return nil, io.EOF
	}
	id := s.ids[s.pos]
	s.pos++
	frame, err := s.a.readSelected(id, s.from, s.to, s.arrays, s.buf)
	if err != nil {
		return nil, err
	}
	s.buf = frame
	if st := s.spare; st != nil {
		s.spare = nil
		if err := adios.UnmarshalInto(frame, st); err != nil {
			return nil, fmt.Errorf("archive: record %d: %w", id, err)
		}
		return st, nil
	}
	st, err := adios.Unmarshal(frame)
	if err != nil {
		return nil, fmt.Errorf("archive: record %d: %w", id, err)
	}
	return st, nil
}

// Recycle accepts a consumed step back as the next decode
// destination (adios.ReuseStep rules: structure steps are refused).
func (s *Source) Recycle(st *adios.Step) {
	if st := adios.ReuseStep(st); st != nil {
		s.spare = st
	}
}
