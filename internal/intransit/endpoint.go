// Package intransit implements the endpoint half of the paper's in
// transit workflow: a runtime that receives steps from the ADIOS2/SST
// transport, reconstructs the VTK data model, and drives its own SENSEI
// ConfigurableAnalysis — "the endpoint of our workflow is always a
// SENSEI data consumer." The simulation half is the staging package's
// analysis adaptor (XML types "adios" and "staging"), which ships each
// trigger's data through the hub instead of analyzing locally.
//
// With this split, the memory available to simulation ranks is
// independent of the number of visualization ranks (the property the
// paper emphasizes), and a slow endpoint shows up on the simulation
// side only as bounded staging-queue growth.
//
// One endpoint runtime consumes the stream (group.go, DESIGN.md "The
// endpoint runtime"): a step loop that every endpoint rank runs on its
// communicator — pull, agree on a step across ranks, ingest, execute,
// agree on the outcome, release. An Endpoint is one rank of that loop
// over sources that are its own; a Group spawns R of them, each dialing
// its own shard of the streams (ShardSources), so the analysis work is
// sharded by block range (reductions merge across ranks, rendering
// composites via binary swap into one image per step), and charges the
// per-step barrier waits to a straggler tracker.
package intransit

import (
	"fmt"
	"sort"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// StreamDataAdaptor implements sensei.DataAdaptor over data received
// from SST streams: the endpoint-side mirror of the simulation's
// NekDataAdaptor. Blocks from this endpoint rank's writers are merged
// into one local unstructured grid.
type StreamDataAdaptor struct {
	comm *mpirt.Comm

	step int
	time float64

	structures []*adios.Step             // per source: its structure variables, cached
	merged     *vtkdata.UnstructuredGrid // merged structure, cached
	arrays     map[string][]float64      // merged per-step arrays

	// The merged arrays' backing storage is kept across steps (no
	// analysis reads a step past its Execute, sensei.Analysis): a lone
	// source's are its step's own, recycled with the step; the
	// concatenations of several ReleaseData parks in arrayPool
	// (truncated, capacity kept) for the next step's Ingest to append
	// into. Parking — rather than truncating in place — preserves the
	// live map's missing-key semantics: an array that stops arriving is
	// an error in AddArray, not a silent zero-length delivery.
	arrayPool map[string][]float64
}

// NewStreamDataAdaptor builds an adaptor expecting blocks from
// nSources writers.
func NewStreamDataAdaptor(comm *mpirt.Comm, nSources int) *StreamDataAdaptor {
	return &StreamDataAdaptor{
		comm:       comm,
		structures: make([]*adios.Step, nSources),
		arrays:     map[string][]float64{},
	}
}

// SetStorageReuse does nothing: the merged per-step array buffers
// always recycle across steps.
func (a *StreamDataAdaptor) SetStorageReuse(bool) {}

// ShardRange computes rank's balanced contiguous share of n blocks
// across ranks: the streams an endpoint rank dials (ShardSources) and
// the upstream sources a relay output re-blocks.
func ShardRange(n, ranks, rank int) (lo, hi int) {
	return rank * n / ranks, (rank + 1) * n / ranks
}

// ShardSources is the endpoint runtime's one attach rule, as a
// GroupConfig.Sources: a rank's sources are its own ShardRange of the
// contact addresses, each dialed as a plain consumer with the hello
// opts gives for it. The disjoint shards make the union of the ranks'
// grids the full mesh, so the analyses' cross-rank reductions are
// exact. The unit of parallelism is the stream: more ranks than
// addresses is refused. The sources are the *adios.Reader of the
// shard's addresses, in address order.
func ShardSources(addrs []string, opts func(rank, src int) adios.ReaderOptions) func(rank, ranks int) ([]StepSource, func(), error) {
	return func(rank, ranks int) ([]StepSource, func(), error) {
		if ranks > len(addrs) {
			return nil, nil, fmt.Errorf("intransit: %d endpoint ranks for %d stream(s): every rank dials its own shard of the streams and needs at least one, so run at most %d (to re-block P streams into exactly R <= P, put `relay -out-ranks R` in front)", ranks, len(addrs), len(addrs))
		}
		var readers []*adios.Reader
		cleanup := func() {
			for _, r := range readers {
				r.Close()
			}
		}
		lo, hi := ShardRange(len(addrs), ranks, rank)
		for src := lo; src < hi; src++ {
			r, err := adios.OpenReaderWith(addrs[src], opts(rank, src))
			if err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("intransit: rank %d, stream %d (%s): %w", rank, src, addrs[src], err)
			}
			readers = append(readers, r)
		}
		return Sources(readers...), cleanup, nil
	}
}

// gridOf reads the grid out of a step's structure variables.
func gridOf(s *adios.Step) *vtkdata.UnstructuredGrid {
	g := &vtkdata.UnstructuredGrid{}
	if v := s.FindVar("points"); v != nil {
		g.Points = v.F64
	}
	if v := s.FindVar("connectivity"); v != nil {
		g.Connectivity = v.I64
	}
	if v := s.FindVar("offsets"); v != nil {
		g.Offsets = v.I64
	}
	if v := s.FindVar("types"); v != nil {
		g.CellTypes = v.U8
	}
	return g
}

// IngestStructure caches a structure-carrying step's grid without
// staging its arrays: the step loop runs it on every step it pulls, so
// a step skipped during stream resynchronization never loses its
// structure. bare reports a step that is the grid alone, with no arrays.
func (a *StreamDataAdaptor) IngestStructure(source int, s *adios.Step) (bare bool, err error) {
	if s.Attrs["structure"] != "1" {
		return false, nil
	}
	st := &adios.Step{} // the step less its arrays
	for i := range s.Vars {
		if adios.KeepVar(s.Vars[i].Name, nil) {
			st.Vars = append(st.Vars, s.Vars[i])
		}
	}
	if err := gridOf(st).Validate(); err != nil {
		return false, fmt.Errorf("intransit: source %d structure: %w", source, err)
	}
	a.structures[source] = st
	a.merged = nil
	return len(st.Vars) == len(s.Vars), nil
}

// Ingest absorbs one source's step: structure (if present) is cached,
// arrays are staged for merging — a lone source's as they are, with
// no copy. Call for every source, then Seal.
func (a *StreamDataAdaptor) Ingest(source int, s *adios.Step) error {
	if _, err := a.IngestStructure(source, s); err != nil {
		return err
	}
	if a.structures[source] == nil {
		return fmt.Errorf("intransit: source %d sent arrays before structure", source)
	}
	a.step = int(s.Step)
	a.time = s.Time
	for i := range s.Vars {
		v := &s.Vars[i]
		const prefix = "array/"
		if len(v.Name) > len(prefix) && v.Name[:len(prefix)] == prefix {
			name := v.Name[len(prefix):]
			if len(a.structures) == 1 {
				a.arrays[name] = v.F64
				continue
			}
			buf, ok := a.arrays[name]
			if !ok {
				// Recycled capacity from a previous step, if any.
				buf = a.arrayPool[name]
				delete(a.arrayPool, name)
			}
			a.arrays[name] = append(buf, v.F64...)
		}
	}
	return nil
}

// Seal finalizes the merged structure after all sources ingested: the
// sources' blocks as one grid, under adios.MergeSteps' rebasing rule.
func (a *StreamDataAdaptor) Seal() error {
	if a.merged != nil {
		return nil
	}
	for i, st := range a.structures {
		if st == nil {
			return fmt.Errorf("intransit: source %d never sent structure", i)
		}
	}
	st, err := adios.MergeSteps(a.structures)
	if err != nil {
		return fmt.Errorf("intransit: merged structure: %w", err)
	}
	m := gridOf(st)
	if err := m.Validate(); err != nil {
		return fmt.Errorf("intransit: merged structure: %w", err)
	}
	a.merged = m
	return nil
}

// NumberOfMeshes implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) NumberOfMeshes() (int, error) { return 1, nil }

// MeshMetadata implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) MeshMetadata(i int) (*sensei.MeshMetadata, error) {
	if i != 0 {
		return nil, fmt.Errorf("intransit: mesh %d out of range", i)
	}
	if a.merged == nil {
		return nil, fmt.Errorf("intransit: no data ingested yet")
	}
	local := []int64{int64(a.merged.NumPoints()), int64(a.merged.NumCells())}
	global := a.comm.AllreduceI64(local, mpirt.OpSum)
	md := &sensei.MeshMetadata{
		MeshName:  "mesh",
		NumPoints: global[0],
		NumCells:  global[1],
		NumBlocks: a.comm.Size(),
	}
	for name := range a.arrays {
		md.ArrayNames = append(md.ArrayNames, name)
		md.ArrayAssoc = append(md.ArrayAssoc, sensei.AssocPoint)
	}
	sort.Strings(md.ArrayNames) // every assoc is a point: no reorder
	return md, nil
}

// Mesh implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) Mesh(meshName string, structureOnly bool) (*vtkdata.UnstructuredGrid, error) {
	if meshName != "mesh" {
		return nil, fmt.Errorf("intransit: unknown mesh %q", meshName)
	}
	if a.merged == nil {
		return nil, fmt.Errorf("intransit: no data ingested yet")
	}
	return &vtkdata.UnstructuredGrid{
		Points:       a.merged.Points,
		Connectivity: a.merged.Connectivity,
		Offsets:      a.merged.Offsets,
		CellTypes:    a.merged.CellTypes,
	}, nil
}

// AddArray implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) AddArray(g *vtkdata.UnstructuredGrid, meshName string, assoc sensei.Assoc, name string) error {
	if assoc != sensei.AssocPoint {
		return fmt.Errorf("intransit: only point arrays travel in transit")
	}
	data, ok := a.arrays[name]
	if !ok {
		return fmt.Errorf("intransit: array %q not in stream", name)
	}
	if g.FindPointData(name) != nil {
		return nil
	}
	return g.AddPointData(name, 1, data)
}

// Time implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) Time() float64 { return a.time }

// TimeStep implements sensei.DataAdaptor.
func (a *StreamDataAdaptor) TimeStep() int { return a.step }

// ReleaseData implements sensei.DataAdaptor: per-step arrays are
// dropped, the merged structure persists. Each concatenated buffer of
// several sources is parked (truncated, capacity kept) for the
// next step's Ingest; the live map is emptied either way, so a
// vanished array is a missing key — an AddArray error — not stale
// data.
func (a *StreamDataAdaptor) ReleaseData() error {
	if len(a.structures) > 1 {
		if a.arrayPool == nil {
			a.arrayPool = map[string][]float64{}
		}
		for k, v := range a.arrays {
			a.arrayPool[k] = v[:0]
		}
	}
	clear(a.arrays)
	return nil
}

// StepSource delivers one stream of timesteps to an endpoint.
// *adios.Reader (a direct SST stream), *staging.Consumer (a fan-out hub
// subscription) and *archive.Source (a recorded run read back from
// disk) all satisfy it, so the same endpoint runtime consumes a live
// transport or a post hoc archive interchangeably.
//
// io.EOF is a clean end-of-stream only when every source of every
// endpoint rank reports it in the same round of the step loop. A
// source that ends while a peer still delivers — at the pull, or while
// it is being advanced to a step a peer already holds — stopped short
// of a step the others delivered: it lost data, and the run fails.
type StepSource interface {
	BeginStep() (*adios.Step, error)
}

// Sources adapts direct SST readers to the StepSource slice
// NewEndpoint consumes.
func Sources(readers ...*adios.Reader) []StepSource {
	out := make([]StepSource, len(readers))
	for i, r := range readers {
		out[i] = r
	}
	return out
}

// StepRecycler is the optional StepSource extension for decode-into-
// reuse: a source that can decode the next step into recycled storage
// accepts consumed steps back through Recycle. *adios.Reader
// implements it (structure steps are refused — their slices live on in
// grid caches); *staging.Consumer does not, because hub steps are
// shared and reclaimed by reference count instead.
type StepRecycler interface {
	Recycle(*adios.Step)
}

// recycleStep hands a fully consumed step back to its source when the
// source supports decode-into-reuse. Safe for nil steps.
func recycleStep(src StepSource, s *adios.Step) {
	if s == nil {
		return
	}
	if r, ok := src.(StepRecycler); ok {
		r.Recycle(s)
	}
}

// Endpoint is one rank of the endpoint runtime: it runs the step loop
// (runRank) on its Context's communicator over sources that are
// already its own — the whole stream on a one-rank communicator, this
// rank's share on a larger one — and executes a SENSEI
// ConfigurableAnalysis on each step: a Catalyst render, a VTU
// checkpoint, or nothing, the paper's three measurement points.
// Endpoints sharing a communicator agree on every step, so a failure on
// one of them ends them all. Group builds one per rank.
type Endpoint struct {
	ctx *sensei.Context
	ca  *sensei.ConfigurableAnalysis
	rs  rankStream

	// StepDelay adds artificial processing time per step, modelling a
	// slower consumer (saturated filesystem, heavier pipelines). With
	// a sufficiently slow endpoint the producers' SST queues back up —
	// the mechanism behind the paper's Figure 6 memory overhead.
	StepDelay time.Duration

	straggler *metrics.Straggler // the Group's barrier-wait tracker; nil standalone
}

// NewEndpoint builds an endpoint over the given step sources with
// analyses from configXML (empty config = pure sink).
func NewEndpoint(ctx *sensei.Context, sources []StepSource, configXML []byte) (*Endpoint, error) {
	ca := sensei.NewConfigurableAnalysis(ctx)
	if len(configXML) > 0 {
		if err := ca.InitializeXML(configXML); err != nil {
			return nil, err
		}
	}
	return &Endpoint{ctx: ctx, ca: ca, rs: rankStream{
		sources: sources,
		steps:   make([]*adios.Step, len(sources)),
		da:      NewStreamDataAdaptor(ctx.Comm, len(sources)),
	}}, nil
}

// Analysis exposes the endpoint's analysis multiplexer.
func (e *Endpoint) Analysis() *sensei.ConfigurableAnalysis { return e.ca }

// Stopped reports whether an analysis ended the run early through the
// stop signal (as opposed to the stream reaching end-of-stream).
func (e *Endpoint) Stopped() bool { return e.rs.stopped }

// Run consumes the streams until every source reaches end-of-stream,
// executing the configured analyses per step. Returns the number of
// steps processed; the error is nil on a rank that stopped because a
// peer on its communicator failed. Analyses are finalized on every
// exit path; a finalize failure (e.g. the .pvd index write) surfaces
// unless an earlier error takes precedence.
func (e *Endpoint) Run() (int, error) {
	err := runRank(e.ctx.Comm, &e.rs, e.ca, e.StepDelay, e.straggler)
	if ferr := e.ca.Finalize(); ferr != nil && err == nil {
		err = ferr
	}
	return e.rs.processed, err
}
