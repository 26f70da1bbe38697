package sensei

import (
	"reflect"
	"testing"
)

func TestRequirementsUnion(t *testing.T) {
	tests := []struct {
		name string
		a, b Requirements
		want Requirements
	}{
		{
			name: "disjoint arrays of one mesh dedup and sort",
			a:    RequireArrays("mesh", AssocPoint, "pressure"),
			b:    RequireArrays("mesh", AssocPoint, "velocity_x", "pressure"),
			want: RequireArrays("mesh", AssocPoint, "pressure", "velocity_x"),
		},
		{
			name: "overlapping meshes merge, distinct meshes kept",
			a:    RequireArrays("a", AssocPoint, "f").Union(RequireArrays("b", AssocPoint, "g")),
			b:    RequireArrays("b", AssocPoint, "h"),
			want: RequireArrays("a", AssocPoint, "f").Union(RequireArrays("b", AssocPoint, "g", "h")),
		},
		{
			name: "assoc conflict keeps both entries",
			a:    RequireArrays("mesh", AssocPoint, "f"),
			b:    RequireArrays("mesh", AssocCell, "f"),
			want: Requirements{meshes: []MeshRequirement{{
				Mesh: "mesh",
				Arrays: []ArrayKey{
					{Name: "f", Assoc: AssocPoint},
					{Name: "f", Assoc: AssocCell},
				},
			}}},
		},
		{
			name: "structure-only promoted away by arrays",
			a:    RequireArrays("mesh", AssocPoint),
			b:    RequireArrays("mesh", AssocPoint, "f"),
			want: RequireArrays("mesh", AssocPoint, "f"),
		},
		{
			name: "structure-only survives structure-only",
			a:    RequireArrays("mesh", AssocPoint),
			b:    RequireArrays("mesh", AssocPoint),
			want: RequireArrays("mesh", AssocPoint),
		},
		{
			name: "all-arrays absorbs specific lists",
			a:    RequireArrays("mesh", AssocPoint, "f", "g"),
			b:    RequireAllArrays("mesh"),
			want: RequireAllArrays("mesh"),
		},
		{
			name: "all-arrays absorbs structure-only",
			a:    RequireAllArrays("mesh"),
			b:    RequireArrays("mesh", AssocPoint),
			want: RequireAllArrays("mesh"),
		},
		{
			name: "empty union identity",
			a:    NoRequirements(),
			b:    RequireArrays("mesh", AssocPoint, "f"),
			want: RequireArrays("mesh", AssocPoint, "f"),
		},
		{
			name: "empty mesh name normalized to default",
			a:    RequireArrays("", AssocPoint, "f"),
			b:    RequireArrays("mesh", AssocPoint, "g"),
			want: RequireArrays("mesh", AssocPoint, "f", "g"),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for _, got := range []Requirements{tc.a.Union(tc.b), tc.b.Union(tc.a)} {
				if !reflect.DeepEqual(got.Meshes(), tc.want.Meshes()) {
					t.Errorf("union meshes = %+v, want %+v", got.Meshes(), tc.want.Meshes())
				}
			}
		})
	}
}

func TestRequirementsUnionDoesNotMutate(t *testing.T) {
	a := RequireArrays("mesh", AssocPoint, "f")
	b := RequireArrays("mesh", AssocPoint, "g")
	_ = a.Union(b)
	if len(a.Mesh("mesh").Arrays) != 1 || a.Mesh("mesh").Arrays[0].Name != "f" {
		t.Errorf("Union mutated its receiver: %+v", a.Meshes())
	}
	// Repeated unions against a cached declaration stay stable.
	u := NoRequirements()
	for i := 0; i < 3; i++ {
		u = u.Union(a).Union(b)
	}
	if got := len(u.Mesh("mesh").Arrays); got != 2 {
		t.Errorf("repeated unions produced %d arrays, want 2", got)
	}
}

func TestRequirementsPointArrayNames(t *testing.T) {
	r := RequireArrays("mesh", AssocPoint, "b", "a").Union(RequireArrays("mesh", AssocCell, "c"))
	if got := r.Mesh("mesh").PointArrayNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("PointArrayNames = %v, want [a b]", got)
	}
	all := RequireAllArrays("mesh")
	if got := all.Mesh("mesh").PointArrayNames(); got != nil {
		t.Errorf("all-arrays PointArrayNames = %v, want nil", got)
	}
}

func TestRequirementsString(t *testing.T) {
	for _, tc := range []struct {
		r    Requirements
		want string
	}{
		{NoRequirements(), "none"},
		{RequireAllArrays("mesh"), "mesh{*}"},
		{RequireArrays("mesh", AssocPoint), "mesh{structure}"},
		{RequireArrays("mesh", AssocPoint, "f").Union(RequireArrays("mesh", AssocCell, "c")), "mesh{c/cell,f/point}"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
