package sensei

import (
	"fmt"

	"nekrs-sensei/internal/vtkdata"
)

// Step is the pulled-once, shared, read-only view of one simulation
// step that analyses consume: for each mesh in the planned union of
// requirements it holds one grid with every required array attached.
// All analyses triggered at the same step share the same Step (and the
// same grids and arrays) — treat everything reachable from it as
// immutable.
type Step struct {
	da    DataAdaptor
	step  int
	time  float64
	shard *Shard

	grids map[string]*vtkdata.UnstructuredGrid
	metas map[string]*MeshMetadata // lazily resolved, cached

	// pulledBytes is the payload volume attached by Pull, per mesh and
	// array key — the planner's per-analysis accounting source.
	pulledBytes map[string]map[ArrayKey]int64
}

// TimeStep reports the simulation step index.
func (s *Step) TimeStep() int { return s.step }

// Time reports the simulation time.
func (s *Step) Time() float64 { return s.time }

// Shard reports this rank's slice of a work-sharded endpoint group,
// nil in situ.
func (s *Step) Shard() *Shard { return s.shard }

// Adaptor exposes the underlying DataAdaptor — the path for metadata
// queries that need no bulk data. Analyses should consume
// Mesh/Metadata instead of pulling through it; ad hoc pulls forfeit
// the pull-once guarantee.
func (s *Step) Adaptor() DataAdaptor { return s.da }

// Mesh returns the pulled grid for the named mesh with every planned
// array attached. The grid is shared by all analyses of this step:
// read-only. Fails if the mesh was not declared in any triggered
// analysis' requirements.
func (s *Step) Mesh(name string) (*vtkdata.UnstructuredGrid, error) {
	g := s.grids[normMesh(name)]
	if g == nil {
		return nil, fmt.Errorf("sensei: mesh %q was not declared in this step's requirements", name)
	}
	return g, nil
}

// PointArray returns one attached point array of a pulled mesh.
func (s *Step) PointArray(mesh, name string) (*vtkdata.DataArray, error) {
	g, err := s.Mesh(mesh)
	if err != nil {
		return nil, err
	}
	arr := g.FindPointData(name)
	if arr == nil {
		return nil, fmt.Errorf("sensei: array %q not attached to mesh %q (declare it in Describe)", name, mesh)
	}
	return arr, nil
}

// Metadata returns the named mesh's metadata, resolving it through the
// data adaptor once and caching it for the step. Collective when the
// underlying adaptor's MeshMetadata is.
func (s *Step) Metadata(mesh string) (*MeshMetadata, error) {
	mesh = normMesh(mesh)
	if md := s.metas[mesh]; md != nil {
		return md, nil
	}
	n, err := s.da.NumberOfMeshes()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		md, err := s.da.MeshMetadata(i)
		if err != nil {
			return nil, err
		}
		if s.metas == nil {
			s.metas = map[string]*MeshMetadata{}
		}
		s.metas[md.MeshName] = md
		if md.MeshName == mesh {
			return md, nil
		}
	}
	return nil, fmt.Errorf("sensei: no metadata for mesh %q", mesh)
}

// MeshSubset returns a shallow head of a pulled mesh carrying only the
// named point arrays (structure slices shared, no data copied) — for
// adaptors that serialize "their" grid (checkpoints, senders) and must
// not leak arrays other analyses declared onto the shared grid.
func (s *Step) MeshSubset(mesh string, names []string) (*vtkdata.UnstructuredGrid, error) {
	g, err := s.Mesh(mesh)
	if err != nil {
		return nil, err
	}
	out := &vtkdata.UnstructuredGrid{
		Points:       g.Points,
		Connectivity: g.Connectivity,
		Offsets:      g.Offsets,
		CellTypes:    g.CellTypes,
	}
	for _, n := range names {
		arr := g.FindPointData(n)
		if arr == nil {
			return nil, fmt.Errorf("sensei: array %q not attached to mesh %q (declare it in Describe)", n, mesh)
		}
		out.PointData = append(out.PointData, arr)
	}
	return out, nil
}

// bytesPulled sums the payload attached for one mesh requirement —
// the share of the pull attributable to an analysis that declared it.
func (s *Step) bytesPulled(m *MeshRequirement) int64 {
	per := s.pulledBytes[m.Mesh]
	if per == nil {
		return 0
	}
	if m.AllArrays {
		var n int64
		for _, b := range per {
			n += b
		}
		return n
	}
	var n int64
	for _, k := range m.Arrays {
		n += per[k]
	}
	return n
}

// Pull materializes a Step satisfying reqs through da: each declared
// mesh is fetched exactly once (structure-only when no arrays are
// required of it) and each declared array attached exactly once.
// AllArrays requirements are resolved against the adaptor's advertised
// metadata.
func Pull(da DataAdaptor, reqs Requirements, shard *Shard) (*Step, error) {
	return PullInto(da, reqs, shard, nil)
}

// PullInto is Pull decoding into recycled Step bookkeeping: a non-nil
// reuse step (from a previous PullInto over the same adaptor) has its
// maps cleared and reused instead of reallocated, so the planner's
// per-step overhead reaches a zero-allocation steady state. Only the
// Step's own structures are recycled here; the adaptors recycle the
// array storage under the grids themselves. Callers must not pass a
// reuse step that any analysis still holds.
func PullInto(da DataAdaptor, reqs Requirements, shard *Shard, reuse *Step) (*Step, error) {
	st := reuse
	if st == nil {
		st = &Step{
			grids:       map[string]*vtkdata.UnstructuredGrid{},
			pulledBytes: map[string]map[ArrayKey]int64{},
		}
	} else {
		clear(st.grids)
		clear(st.metas)
	}
	st.da, st.step, st.time, st.shard = da, da.TimeStep(), da.Time(), shard
	for _, m := range reqs.Meshes() {
		g, err := da.Mesh(m.Mesh, true)
		if err != nil {
			return nil, fmt.Errorf("sensei: pull mesh %q: %w", m.Mesh, err)
		}
		keys := m.Arrays
		if m.AllArrays {
			md, err := st.Metadata(m.Mesh)
			if err != nil {
				return nil, err
			}
			keys = make([]ArrayKey, md.NumArrays())
			for i, name := range md.ArrayNames {
				keys[i] = ArrayKey{Name: name, Assoc: md.ArrayAssoc[i]}
			}
		}
		// Reuse the accounting map from a recycled step. Meshes pulled
		// by earlier steps but not this one leave stale outer entries;
		// they are harmless, because bytesPulled is only consulted for
		// meshes in this step's union.
		per := st.pulledBytes[m.Mesh]
		if per == nil {
			per = map[ArrayKey]int64{}
		} else {
			clear(per)
		}
		for _, k := range keys {
			if err := da.AddArray(g, m.Mesh, k.Assoc, k.Name); err != nil {
				return nil, fmt.Errorf("sensei: pull array %s of mesh %q: %w", k, m.Mesh, err)
			}
			arr := g.FindPointData(k.Name)
			if k.Assoc == AssocCell {
				arr = g.FindCellData(k.Name)
			}
			if arr != nil {
				per[k] = int64(len(arr.Data)) * 8
			}
		}
		st.grids[m.Mesh] = g
		st.pulledBytes[m.Mesh] = per
	}
	return st, nil
}
