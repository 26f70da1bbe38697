// Package core is the paper's primary contribution: the nek_sensei
// coupling layer that instruments the NekRS-style solver with SENSEI.
// It contains the NekDataAdaptor (the paper's Listing 2), which maps
// the solver's spectral-element fields to the VTK data model —
// staging them from device to host because VTK cannot consume GPU
// memory — and the bridge (Listing 3) that initializes SENSEI,
// updates the adaptor each step, and triggers the configured analyses.
//
// The paper keeps this code in a separate repository shared by Nek5000
// and NekRS as a git submodule; here it is one package with the same
// separation of concerns.
package core

import (
	"fmt"

	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// MeshName is the single mesh the adaptor exposes.
const MeshName = "mesh"

// NekDataAdaptor implements sensei.DataAdaptor over a fluid.Solver.
//
// Memory behaviour, which Figure 3 of the paper measures: the grid
// structure (points + connectivity) is built once and cached; per
// trigger, each requested field is staged device-to-host into a
// persistent mirror buffer ("sensei-mirror") and then copied into the
// VTK array ("vtk-copy"), matching the double-buffering of the real
// C++ coupling (a pinned staging buffer plus a vtkDoubleArray).
type NekDataAdaptor struct {
	solver *fluid.Solver
	acct   *metrics.Accountant

	step int
	time float64

	structure *vtkdata.UnstructuredGrid // cached points+cells, no arrays
	mirrors   map[string][]float64      // persistent D2H staging buffers

	// Per-step VTK array copies recycle through copyPool instead of
	// going to the GC: no analysis reads a step's arrays past its
	// Execute (sensei.Analysis).
	copyPool   map[string][]float64 // one spare buffer per array
	liveCopies []namedCopy          // copies handed out this step

	// Derived vorticity fields, computed on device on demand once per
	// step (the omega arrays NekRS pipelines commonly request).
	vort     map[string]*occa.Memory
	vortStep int

	liveArrays int64 // bytes of per-step VTK array copies
}

// namedCopy records one live per-step VTK copy for return to the pool.
type namedCopy struct {
	name string
	buf  []float64
}

// NewNekDataAdaptor wires the adaptor to the solver. The grid
// structure is built eagerly (it never changes: NekRS meshes are
// static).
func NewNekDataAdaptor(s *fluid.Solver, acct *metrics.Accountant) *NekDataAdaptor {
	da := &NekDataAdaptor{
		solver: s, acct: acct,
		mirrors:  make(map[string][]float64),
		copyPool: make(map[string][]float64),
		vortStep: -1,
	}
	da.structure = da.buildStructure()
	da.acct.Alloc("vtk-structure", da.structure.Bytes())
	return da
}

// buildStructure converts the rank's spectral elements to a VTK
// unstructured grid: every GLL node becomes a point and every GLL
// subcell an hexahedral cell — the standard SEM-to-VTK refinement.
func (da *NekDataAdaptor) buildStructure() *vtkdata.UnstructuredGrid {
	m := da.solver.Mesh()
	nq, np := m.Nq, m.Np
	n := m.NumNodes()
	g := &vtkdata.UnstructuredGrid{}
	g.Points = make([]float64, 3*n)
	for i := 0; i < n; i++ {
		g.Points[3*i] = m.X[i]
		g.Points[3*i+1] = m.Y[i]
		g.Points[3*i+2] = m.Z[i]
	}
	cellsPerElem := (nq - 1) * (nq - 1) * (nq - 1)
	nc := m.Nelt * cellsPerElem
	g.Connectivity = make([]int64, 0, 8*nc)
	g.Offsets = make([]int64, 0, nc)
	g.CellTypes = make([]uint8, 0, nc)
	for e := 0; e < m.Nelt; e++ {
		base := int64(e * np)
		for k := 0; k+1 < nq; k++ {
			for j := 0; j+1 < nq; j++ {
				for i := 0; i+1 < nq; i++ {
					p := base + int64(k*nq*nq+j*nq+i)
					q := p + int64(nq*nq)
					g.Connectivity = append(g.Connectivity,
						p, p+1, p+1+int64(nq), p+int64(nq),
						q, q+1, q+1+int64(nq), q+int64(nq))
					g.Offsets = append(g.Offsets, int64(len(g.Connectivity)))
					g.CellTypes = append(g.CellTypes, vtkdata.VTKHexahedron)
				}
			}
		}
	}
	return g
}

// SetStep updates the adaptor's notion of simulation time before a
// bridge Update.
func (da *NekDataAdaptor) SetStep(step int, time float64) {
	da.step = step
	da.time = time
}

// NumberOfMeshes implements sensei.DataAdaptor.
func (da *NekDataAdaptor) NumberOfMeshes() (int, error) { return 1, nil }

// MeshMetadata implements sensei.DataAdaptor.
func (da *NekDataAdaptor) MeshMetadata(i int) (*sensei.MeshMetadata, error) {
	if i != 0 {
		return nil, fmt.Errorf("core: mesh %d out of range", i)
	}
	comm := da.solver.Comm()
	local := []int64{int64(da.structure.NumPoints()), int64(da.structure.NumCells())}
	global := comm.AllreduceI64(local, mpirt.OpSum)
	md := &sensei.MeshMetadata{
		MeshName:  MeshName,
		NumPoints: global[0],
		NumCells:  global[1],
		NumBlocks: comm.Size(),
	}
	for _, name := range da.fieldNames() {
		md.ArrayNames = append(md.ArrayNames, name)
		md.ArrayAssoc = append(md.ArrayAssoc, sensei.AssocPoint)
	}
	return md, nil
}

// fieldNames lists the solver fields in a deterministic order,
// including the derived vorticity components.
func (da *NekDataAdaptor) fieldNames() []string {
	names := []string{"velocity_x", "velocity_y", "velocity_z", "pressure"}
	if da.solver.Fields()["temperature"] != nil {
		names = append(names, "temperature")
	}
	return append(names, "vorticity_x", "vorticity_y", "vorticity_z")
}

// vorticityField returns the device buffer for a derived vorticity
// component, computing all three components (once per step) on first
// request.
func (da *NekDataAdaptor) vorticityField(name string) *occa.Memory {
	switch name {
	case "vorticity_x", "vorticity_y", "vorticity_z":
	default:
		return nil
	}
	if da.vort == nil {
		dev := da.solver.Device()
		n := da.solver.Mesh().NumNodes()
		da.vort = map[string]*occa.Memory{
			"vorticity_x": dev.Malloc("vorticity_x", n),
			"vorticity_y": dev.Malloc("vorticity_y", n),
			"vorticity_z": dev.Malloc("vorticity_z", n),
		}
	}
	if da.vortStep != da.step {
		da.solver.Vorticity(
			da.vort["vorticity_x"].Data(),
			da.vort["vorticity_y"].Data(),
			da.vort["vorticity_z"].Data())
		da.vortStep = da.step
	}
	return da.vort[name]
}

// Mesh implements sensei.DataAdaptor. The returned grid shares the
// cached structure; arrays are attached by AddArray.
func (da *NekDataAdaptor) Mesh(meshName string, structureOnly bool) (*vtkdata.UnstructuredGrid, error) {
	if meshName != MeshName {
		return nil, fmt.Errorf("core: unknown mesh %q", meshName)
	}
	// Arrays differ per caller, so hand out a shallow head that shares
	// the immutable structure slices.
	g := &vtkdata.UnstructuredGrid{
		Points:       da.structure.Points,
		Connectivity: da.structure.Connectivity,
		Offsets:      da.structure.Offsets,
		CellTypes:    da.structure.CellTypes,
	}
	return g, nil
}

// AddArray implements sensei.DataAdaptor: device-to-host staging into
// the persistent mirror, then a copy into the VTK array.
func (da *NekDataAdaptor) AddArray(g *vtkdata.UnstructuredGrid, meshName string, assoc sensei.Assoc, arrayName string) error {
	if meshName != MeshName {
		return fmt.Errorf("core: unknown mesh %q", meshName)
	}
	if assoc != sensei.AssocPoint {
		return fmt.Errorf("core: only point arrays are exposed")
	}
	mem := da.solver.Fields()[arrayName]
	if mem == nil {
		mem = da.vorticityField(arrayName)
	}
	if mem == nil {
		return fmt.Errorf("core: unknown array %q", arrayName)
	}
	if g.FindPointData(arrayName) != nil {
		return nil // already attached
	}
	mirror := da.mirrors[arrayName]
	if mirror == nil {
		mirror = make([]float64, mem.Len())
		da.mirrors[arrayName] = mirror
		da.acct.Alloc("sensei-mirror", int64(len(mirror))*8)
	}
	// The D2H copy the paper identifies as the GPU-coupling cost.
	mem.CopyToHost(mirror)
	vtkCopy := da.takeCopy(arrayName, len(mirror))
	copy(vtkCopy, mirror)
	da.acct.Alloc("vtk-copy", int64(len(vtkCopy))*8)
	da.liveArrays += int64(len(vtkCopy)) * 8
	return g.AddPointData(arrayName, 1, vtkCopy)
}

// takeCopy hands out the per-step VTK buffer for one array: the pool's
// spare when it fits, a fresh one otherwise. Every copy is recorded so
// ReleaseData can return it.
func (da *NekDataAdaptor) takeCopy(name string, n int) []float64 {
	buf := da.copyPool[name]
	if len(buf) == n {
		delete(da.copyPool, name)
	} else {
		buf = make([]float64, n)
	}
	da.liveCopies = append(da.liveCopies, namedCopy{name: name, buf: buf})
	return buf
}

// Time implements sensei.DataAdaptor.
func (da *NekDataAdaptor) Time() float64 { return da.time }

// TimeStep implements sensei.DataAdaptor.
func (da *NekDataAdaptor) TimeStep() int { return da.step }

// ReleaseData implements sensei.DataAdaptor: per-step VTK array copies
// are recycled into the copy pool; the structure and mirrors persist
// across triggers.
func (da *NekDataAdaptor) ReleaseData() error {
	da.acct.Free("vtk-copy", da.liveArrays)
	da.liveArrays = 0
	for i, c := range da.liveCopies {
		da.copyPool[c.name] = c.buf
		da.liveCopies[i] = namedCopy{}
	}
	da.liveCopies = da.liveCopies[:0]
	return nil
}

// Bridge embeds SENSEI into the simulation loop, the role of the
// paper's Listing 3 bridge code: initialize once, update per step,
// finalize at shutdown.
type Bridge struct {
	da *NekDataAdaptor
	ca *sensei.ConfigurableAnalysis
}

// Initialize builds the data adaptor and the ConfigurableAnalysis from
// an XML document (Listing 1 schema).
func Initialize(ctx *sensei.Context, s *fluid.Solver, configXML []byte) (*Bridge, error) {
	da := NewNekDataAdaptor(s, ctx.Acct)
	ca := sensei.NewConfigurableAnalysis(ctx)
	if err := ca.InitializeXML(configXML); err != nil {
		return nil, err
	}
	return &Bridge{da: da, ca: ca}, nil
}

// InitializeFile is Initialize reading the XML from a file, matching
// the paper's `ca->Initialize("conf.xml")`.
func InitializeFile(ctx *sensei.Context, s *fluid.Solver, path string) (*Bridge, error) {
	da := NewNekDataAdaptor(s, ctx.Acct)
	ca := sensei.NewConfigurableAnalysis(ctx)
	if err := ca.InitializeFile(path); err != nil {
		return nil, err
	}
	return &Bridge{da: da, ca: ca}, nil
}

// DataAdaptor exposes the underlying adaptor (endpoint tests, custom
// drivers).
func (b *Bridge) DataAdaptor() *NekDataAdaptor { return b.da }

// Analysis exposes the configured analysis multiplexer.
func (b *Bridge) Analysis() *sensei.ConfigurableAnalysis { return b.ca }

// Update advances SENSEI to the given step: analyses whose frequency
// divides step execute against fresh data (pulled once and shared by
// the planner); per-step copies are released afterwards. The returned
// stop is true when an analysis requested a clean simulation stop —
// the bridge's caller should finish this step and finalize.
func (b *Bridge) Update(step int, time float64) (stop bool, err error) {
	b.da.SetStep(step, time)
	stop, err = b.ca.Execute(b.da)
	if err != nil {
		return false, err
	}
	return stop, b.da.ReleaseData()
}

// Finalize shuts down all analyses.
func (b *Bridge) Finalize() error { return b.ca.Finalize() }
