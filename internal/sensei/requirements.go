package sensei

import (
	"fmt"
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

// MeshRequirement is the declared need against one mesh.
type MeshRequirement struct {
	// Mesh names the mesh ("" is normalized to "mesh" by the helpers).
	Mesh string
	// StructureOnly marks a mesh needed for its geometry alone — no
	// arrays. It is absorbed ("promoted") when unioned with any
	// requirement that pulls arrays from the same mesh, because array
	// pulls imply the structure.
	StructureOnly bool
	// AllArrays requests every array the data adaptor advertises; it
	// absorbs specific array lists in a union.
	AllArrays bool
	// Arrays are the specific required arrays, deduplicated by
	// (name, assoc) and kept in sorted order.
	Arrays []ArrayKey
}

// PointArrayNames lists the required point-associated array names in
// sorted order — the subset an in-transit sender ships (only point
// arrays travel in transit). Nil when AllArrays or StructureOnly.
func (m *MeshRequirement) PointArrayNames() []string {
	if m.AllArrays || m.StructureOnly {
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
// across several): which meshes it reads, which arrays of each, and how
// often. The zero value requires nothing. Requirements are values —
// the combinators return new values and never mutate their receivers,
// so a cached per-analysis declaration is safe to union repeatedly.
type Requirements struct {
	meshes []MeshRequirement // sorted by mesh name

	// frequency is the cadence (in trigger steps) at which the data is
	// needed; 0 or 1 means every trigger. The union of two frequencies
	// is their gcd (data is needed whenever either party needs it);
	// the planner combines an analysis' declared frequency with its
	// configured XML frequency by lcm (both gates must open).
	frequency int

	// maxErr, when maxErrSet, is the largest absolute per-value error
	// the analysis tolerates on its required arrays — the bound an
	// in-transit reader may hand the wire quantizer. Unset means the
	// analysis needs lossless data.
	maxErr    float64
	maxErrSet bool
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

// RequireStructure declares a structure-only need: the mesh geometry
// with no arrays.
func RequireStructure(mesh string) Requirements {
	return Requirements{meshes: []MeshRequirement{{Mesh: normMesh(mesh), StructureOnly: true}}}
}

// RequireArrays declares specific arrays of one mesh under one
// association.
func RequireArrays(mesh string, assoc Assoc, names ...string) Requirements {
	m := MeshRequirement{Mesh: normMesh(mesh)}
	for _, n := range names {
		m.Arrays = append(m.Arrays, ArrayKey{Name: n, Assoc: assoc})
	}
	if len(m.Arrays) == 0 {
		m.StructureOnly = true
	}
	m.Arrays = dedupArrayKeys(m.Arrays)
	return Requirements{meshes: []MeshRequirement{m}}
}

// RequireAllArrays declares every advertised array of one mesh.
func RequireAllArrays(mesh string) Requirements {
	return Requirements{meshes: []MeshRequirement{{Mesh: normMesh(mesh), AllArrays: true}}}
}

// EveryN returns a copy declaring the data is only needed every n
// triggers (n < 1 is normalized to every trigger).
func (r Requirements) EveryN(n int) Requirements {
	if n < 1 {
		n = 1
	}
	out := r.clone()
	out.frequency = n
	return out
}

// WithMaxError returns a copy declaring the analysis tolerates up to
// bound of absolute error per array value (bound <= 0 or non-finite
// clears the declaration back to lossless).
func (r Requirements) WithMaxError(bound float64) Requirements {
	out := r.clone()
	if bound > 0 && bound <= maxFinite {
		out.maxErr, out.maxErrSet = bound, true
	} else {
		out.maxErr, out.maxErrSet = 0, false
	}
	return out
}

// maxFinite gates WithMaxError against Inf/NaN without importing math.
const maxFinite = 0x1p1023 * (1 + (1 - 0x1p-52))

// MaxError reports the declared error tolerance; ok is false when the
// analysis needs lossless data.
func (r Requirements) MaxError() (bound float64, ok bool) {
	return r.maxErr, r.maxErrSet
}

// Frequency reports the declared cadence (1 = every trigger).
func (r Requirements) Frequency() int {
	if r.frequency < 1 {
		return 1
	}
	return r.frequency
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
	out := r
	out.meshes = make([]MeshRequirement, len(r.meshes))
	copy(out.meshes, r.meshes)
	for i := range out.meshes {
		out.meshes[i].Arrays = append([]ArrayKey(nil), out.meshes[i].Arrays...)
	}
	return out
}

// Union merges two declarations: meshes deduplicate by name, a
// structure-only need is promoted away when the other side pulls
// arrays from the same mesh, AllArrays absorbs specific lists, array
// keys deduplicate by (name, assoc), and frequencies combine by gcd.
func (r Requirements) Union(o Requirements) Requirements {
	out := r.clone()
	out.frequency = gcd(r.Frequency(), o.Frequency())
	// Error tolerances union to the strictest demand: both sides must
	// tolerate loss for the union to, and the smaller bound wins.
	out.maxErr, out.maxErrSet = 0, false
	if r.maxErrSet && o.maxErrSet {
		out.maxErr, out.maxErrSet = r.maxErr, true
		if o.maxErr < out.maxErr {
			out.maxErr = o.maxErr
		}
	}
	for _, om := range o.meshes {
		merged := false
		for i := range out.meshes {
			m := &out.meshes[i]
			if m.Mesh != om.Mesh {
				continue
			}
			m.AllArrays = m.AllArrays || om.AllArrays
			// Structure-only survives only if BOTH sides are
			// structure-only (promotion: arrays imply structure).
			m.StructureOnly = m.StructureOnly && om.StructureOnly
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

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	return a / gcd(a, b) * b
}

// String renders the declaration compactly, e.g.
// "mesh{pressure/point,velocity_x/point} every 2".
func (r Requirements) String() string {
	if r.Empty() {
		return "none"
	}
	var parts []string
	for _, m := range r.meshes {
		switch {
		case m.AllArrays:
			parts = append(parts, m.Mesh+"{*}")
		case m.StructureOnly:
			parts = append(parts, m.Mesh+"{structure}")
		default:
			names := make([]string, len(m.Arrays))
			for i, k := range m.Arrays {
				names[i] = k.String()
			}
			parts = append(parts, m.Mesh+"{"+strings.Join(names, ",")+"}")
		}
	}
	s := strings.Join(parts, " ")
	if f := r.Frequency(); f > 1 {
		s += fmt.Sprintf(" every %d", f)
	}
	return s
}
