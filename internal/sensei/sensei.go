// Package sensei is the reproduction's port of the SENSEI generic in
// situ interface (Ayachit et al., ISAV 2016): simulation codes
// implement a DataAdaptor that exposes their state through the VTK
// data model; analysis back ends implement the Analysis contract; and
// a ConfigurableAnalysis multiplexes analyses selected at *runtime*
// from an XML configuration — the paper's Listing 1 — so in situ
// algorithms can be swapped without recompiling the simulation.
//
// The analysis side is requirements-driven (mirroring SENSEI's own
// evolution toward declared data requirements): every Analysis
// declares up front which meshes and arrays it consumes (Describe →
// Requirements), the ConfigurableAnalysis plans the union of the
// triggered declarations and pulls each mesh and array from the
// simulation exactly once per step into a shared read-only Step, and
// the declarations propagate upstream so in-transit senders ship only
// the requested arrays (see Requirements, Pull, and the intransit /
// staging packages). An Analysis may also request a clean stop of the
// simulation or endpoint loop by returning stop=true from Execute.
package sensei

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/telemetry"
	"nekrs-sensei/internal/vtkdata"
)

// Assoc distinguishes point- from cell-centred arrays.
type Assoc int

// Array associations.
const (
	AssocPoint Assoc = iota
	AssocCell
)

func (a Assoc) String() string {
	if a == AssocCell {
		return "cell"
	}
	return "point"
}

// MeshMetadata describes one mesh a DataAdaptor can produce, the
// SENSEI structure analyses consult before pulling data.
type MeshMetadata struct {
	MeshName   string
	NumPoints  int64 // global across ranks
	NumCells   int64 // global across ranks
	NumBlocks  int   // number of ranks contributing blocks
	ArrayNames []string
	ArrayAssoc []Assoc
}

// NumArrays reports the number of advertised arrays.
func (md *MeshMetadata) NumArrays() int { return len(md.ArrayNames) }

// HasArray reports whether the named array is advertised.
func (md *MeshMetadata) HasArray(name string) bool {
	for _, n := range md.ArrayNames {
		if n == name {
			return true
		}
	}
	return false
}

// DataAdaptor is the simulation-side interface (the paper's Listing 2:
// GetNumberOfMeshes / GetMeshMetadata / GetMesh / AddArray, with Go
// naming). Implementations expose simulation state as VTK grids; data
// on accelerator memory must be staged to the host to satisfy the VTK
// data model.
type DataAdaptor interface {
	// NumberOfMeshes reports how many meshes the simulation exposes.
	NumberOfMeshes() (int, error)
	// MeshMetadata describes mesh i.
	MeshMetadata(i int) (*MeshMetadata, error)
	// Mesh returns the local block of the named mesh; with
	// structureOnly, no data arrays are attached.
	Mesh(meshName string, structureOnly bool) (*vtkdata.UnstructuredGrid, error)
	// AddArray attaches the named simulation array to a grid
	// previously obtained from Mesh.
	AddArray(g *vtkdata.UnstructuredGrid, meshName string, assoc Assoc, arrayName string) error
	// Time reports the current simulation time.
	Time() float64
	// TimeStep reports the current step index.
	TimeStep() int
	// ReleaseData frees per-step resources created by Mesh/AddArray.
	ReleaseData() error
}

// Analysis is the analysis-side interface: Describe declares up front
// which meshes and arrays Execute will consume, so the planner
// (ConfigurableAnalysis) can pull each mesh and array exactly once per
// step — shared by every triggered analysis through the read-only Step
// — and in-transit senders can ship only the declared subset. Execute
// returns stop=true to request that the simulation or endpoint stop
// cleanly after this step, and may read the step's data only until it
// returns: the planner and the data adaptors reuse that storage for
// the next step. Finalize flushes state at shutdown.
type Analysis interface {
	Describe() Requirements
	Execute(step *Step) (bool, error)
	Finalize() error
}

// Shard describes this rank's slice of a work-sharded analysis
// group: a parallel in-transit endpoint partitions the incoming
// stream's blocks across its ranks, and each rank's DataAdaptor
// exposes only blocks [BlockLo, BlockHi). Analyses do not need to
// consult it to be correct — the partition is disjoint, so the
// existing reductions (histogram counts, probe sums, depth
// compositing) merge shards exactly — but adaptors that emit
// per-rank artifacts can use it for labeling and sizing decisions.
type Shard struct {
	Rank, Ranks      int // position in the endpoint group
	BlockLo, BlockHi int // half-open block (source) range owned here
}

func (s *Shard) String() string {
	return fmt.Sprintf("shard %d/%d (blocks [%d,%d))", s.Rank, s.Ranks, s.BlockLo, s.BlockHi)
}

// Context supplies rank-local resources to analysis adaptors.
type Context struct {
	Comm    *mpirt.Comm
	Acct    *metrics.Accountant
	Timer   *metrics.Timer
	Storage *metrics.StorageCounter
	// OutputDir is where file-producing adaptors write.
	OutputDir string
	// Shard is this rank's block range when it is one rank of the
	// endpoint runtime (intransit.Group sets it); nil in situ.
	Shard *Shard
	// Telemetry is the process's live observability plane (nil when
	// disabled — all downstream handles no-op): the planner stamps
	// pull/analyze/render stages and publishes pull/execute timing
	// histograms into it.
	Telemetry *telemetry.Telemetry
}

// Factory instantiates an Analysis from its XML attributes.
type Factory func(ctx *Context, attrs map[string]string) (Analysis, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes an analysis type available to ConfigurableAnalysis.
// Typically called from an adaptor package's init.
func Register(typeName string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[typeName] = f
}

// elementAttrs are what ConfigurableAnalysis reads of every analysis
// element, whatever its type.
var elementAttrs = []string{"type", "enabled", "frequency", "maxerror"}

// CheckAttrs refuses an attribute the factory of typ would not read,
// naming the type and the attribute, so a typo or a leftover is not
// silently ignored. reads lists what that factory reads beside the
// attributes every analysis element carries (type, enabled, frequency,
// maxerror). Every in-tree factory calls it first, with its reads as
// string literals: they are the XML settable values scripts/knobs.sh
// counts.
func CheckAttrs(typ string, attrs map[string]string, reads ...string) error {
	for _, k := range slices.Sorted(maps.Keys(attrs)) {
		if !slices.Contains(elementAttrs, k) && !slices.Contains(reads, k) {
			return fmt.Errorf("sensei: analysis type %q has no attribute %q (it reads %s)",
				typ, k, strings.Join(reads, ", "))
		}
	}
	return nil
}

// RegisteredTypes lists the known analysis types, sorted.
func RegisteredTypes() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewAnalysisAdaptor instantiates a registered analysis type.
func NewAnalysisAdaptor(typeName string, ctx *Context, attrs map[string]string) (Analysis, error) {
	registryMu.RLock()
	f := registry[typeName]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("sensei: unknown analysis type %q (registered: %v)", typeName, RegisteredTypes())
	}
	return f(ctx, attrs)
}
