package sensei

import (
	"sort"
	"strings"
)

// This file implements declared data requirements, the SENSEI evolution
// that turned the bridge from a passive pass-through into a data-
// movement planner: every analysis adaptor declares up front which
// meshes and arrays it will consume (Describe), the
// ConfigurableAnalysis unions the declarations of the analyses
// triggered at a step, pulls each mesh and array from the simulation
// exactly once into a shared Step, and the in-transit senders propagate
// the declarations upstream so only the requested arrays travel on the
// wire.

// ArrayKey identifies one required array: its name and association.
// The same name under different associations is two distinct
// requirements (the VTK data model keeps point and cell arrays in
// separate sets), so a union never collapses an assoc conflict — both
// survive.
type ArrayKey struct {
	Name  string
	Assoc Assoc
}

func (k ArrayKey) String() string { return k.Name + "/" + k.Assoc.String() }

// MeshRequirement is the declared need against one mesh. One with
// neither AllArrays nor Arrays needs the mesh's geometry alone.
type MeshRequirement struct {
	// Mesh names the mesh ("" is normalized to "mesh" by the helpers).
	Mesh string
	// AllArrays requests every array the data adaptor advertises; it
	// absorbs specific array lists in a union.
	AllArrays bool
	// Arrays are the specific required arrays, deduplicated by
	// (name, assoc) and kept in sorted order.
	Arrays []ArrayKey
}

// PointArrayNames lists the required point-associated array names in
// sorted order — the subset an in-transit sender ships (only point
// arrays travel in transit). Nil when AllArrays or geometry alone.
func (m *MeshRequirement) PointArrayNames() []string {
	if m.AllArrays {
		return nil
	}
	var out []string
	for _, k := range m.Arrays {
		if k.Assoc == AssocPoint {
			out = append(out, k.Name)
		}
	}
	return out
}

// Requirements is the declared data need of one analysis (or the union
// across several): which meshes it reads and which arrays of each —
// nothing else. How often an analysis runs is its XML frequency; how
// much error its wire may carry is its XML maxerror (ConfigMaxError).
// The zero value requires nothing. Requirements are values — Union
// returns a new value and never mutates its receiver, so a cached
// per-analysis declaration is safe to union repeatedly.
type Requirements struct {
	meshes []MeshRequirement // sorted by mesh name
}

func normMesh(name string) string {
	if name == "" {
		return "mesh"
	}
	return name
}

// NoRequirements requires nothing (an analysis that only observes
// time/step metadata).
func NoRequirements() Requirements { return Requirements{} }

// RequireArrays declares specific arrays of one mesh under one
// association; with no names, the mesh's geometry alone.
func RequireArrays(mesh string, assoc Assoc, names ...string) Requirements {
	m := MeshRequirement{Mesh: normMesh(mesh)}
	for _, n := range names {
		m.Arrays = append(m.Arrays, ArrayKey{Name: n, Assoc: assoc})
	}
	m.Arrays = dedupArrayKeys(m.Arrays)
	return Requirements{meshes: []MeshRequirement{m}}
}

// RequireAllArrays declares every advertised array of one mesh.
func RequireAllArrays(mesh string) Requirements {
	return Requirements{meshes: []MeshRequirement{{Mesh: normMesh(mesh), AllArrays: true}}}
}

// Empty reports whether nothing is required.
func (r Requirements) Empty() bool { return len(r.meshes) == 0 }

// Meshes returns the per-mesh requirements, sorted by mesh name. The
// returned slice is shared; treat it as read-only.
func (r Requirements) Meshes() []MeshRequirement { return r.meshes }

// Mesh returns the requirement against the named mesh, nil if none.
func (r Requirements) Mesh(name string) *MeshRequirement {
	name = normMesh(name)
	for i := range r.meshes {
		if r.meshes[i].Mesh == name {
			return &r.meshes[i]
		}
	}
	return nil
}

func (r Requirements) clone() Requirements {
	out := Requirements{meshes: make([]MeshRequirement, len(r.meshes))}
	copy(out.meshes, r.meshes)
	for i := range out.meshes {
		out.meshes[i].Arrays = append([]ArrayKey(nil), out.meshes[i].Arrays...)
	}
	return out
}

// Union merges two declarations: meshes deduplicate by name, AllArrays
// absorbs specific lists, and array keys deduplicate by (name, assoc)
// — so a geometry-alone need gains the other side's arrays.
func (r Requirements) Union(o Requirements) Requirements {
	out := r.clone()
	for _, om := range o.meshes {
		merged := false
		for i := range out.meshes {
			m := &out.meshes[i]
			if m.Mesh != om.Mesh {
				continue
			}
			m.AllArrays = m.AllArrays || om.AllArrays
			if m.AllArrays {
				m.Arrays = nil
			} else {
				m.Arrays = append(m.Arrays, om.Arrays...)
				m.Arrays = dedupArrayKeys(m.Arrays)
			}
			merged = true
			break
		}
		if !merged {
			cp := om
			cp.Arrays = dedupArrayKeys(append([]ArrayKey(nil), om.Arrays...))
			out.meshes = append(out.meshes, cp)
		}
	}
	sort.Slice(out.meshes, func(i, j int) bool { return out.meshes[i].Mesh < out.meshes[j].Mesh })
	return out
}

func sortArrayKeys(keys []ArrayKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Assoc < keys[j].Assoc
	})
}

func dedupArrayKeys(keys []ArrayKey) []ArrayKey {
	sortArrayKeys(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// String renders the declaration compactly, e.g.
// "mesh{pressure/point,velocity_x/point}".
func (r Requirements) String() string {
	if r.Empty() {
		return "none"
	}
	var parts []string
	for _, m := range r.meshes {
		switch {
		case m.AllArrays:
			parts = append(parts, m.Mesh+"{*}")
		case len(m.Arrays) == 0:
			parts = append(parts, m.Mesh+"{structure}")
		default:
			names := make([]string, len(m.Arrays))
			for i, k := range m.Arrays {
				names[i] = k.String()
			}
			parts = append(parts, m.Mesh+"{"+strings.Join(names, ",")+"}")
		}
	}
	return strings.Join(parts, " ")
}
