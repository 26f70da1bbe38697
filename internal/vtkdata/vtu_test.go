package vtkdata

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// unitHexGrid builds a single unit hexahedron with one scalar and one
// vector point array.
func unitHexGrid() *UnstructuredGrid {
	g := &UnstructuredGrid{
		Points: []float64{
			0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0,
			0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1,
		},
		Connectivity: []int64{0, 1, 2, 3, 4, 5, 6, 7},
		Offsets:      []int64{8},
		CellTypes:    []uint8{VTKHexahedron},
	}
	scalar := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	vec := make([]float64, 24)
	for i := range vec {
		vec[i] = float64(i) * 0.5
	}
	if err := g.AddPointData("pressure", 1, scalar); err != nil {
		panic(err)
	}
	if err := g.AddPointData("velocity", 3, vec); err != nil {
		panic(err)
	}
	if err := g.AddCellData("rank", 1, []float64{3}); err != nil {
		panic(err)
	}
	return g
}

func gridsEqual(t *testing.T, a, b *UnstructuredGrid) {
	t.Helper()
	if a.NumPoints() != b.NumPoints() || a.NumCells() != b.NumCells() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumPoints(), a.NumCells(), b.NumPoints(), b.NumCells())
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("points differ at %d: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
	for i := range a.Connectivity {
		if a.Connectivity[i] != b.Connectivity[i] {
			t.Fatalf("connectivity differs at %d", i)
		}
	}
	for i := range a.CellTypes {
		if a.CellTypes[i] != b.CellTypes[i] {
			t.Fatalf("cell types differ at %d", i)
		}
	}
	if len(a.PointData) != len(b.PointData) || len(a.CellData) != len(b.CellData) {
		t.Fatalf("array counts differ")
	}
	for k, aa := range a.PointData {
		bb := b.PointData[k]
		if aa.Name != bb.Name || aa.NumComponents != bb.NumComponents {
			t.Fatalf("array %d meta differs: %v vs %v", k, aa.Name, bb.Name)
		}
		for i := range aa.Data {
			if aa.Data[i] != bb.Data[i] {
				t.Fatalf("array %q differs at %d", aa.Name, i)
			}
		}
	}
}

func TestRoundTripAppendedRaw(t *testing.T) {
	g := unitHexGrid()
	var buf bytes.Buffer
	n, err := WriteVTU(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadVTU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gridsEqual(t, g, got)
}

// TestRoundTripProperty: random grids survive write/read, including
// special float values.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 8 + rng.Intn(40)
		g := &UnstructuredGrid{}
		g.Points = make([]float64, 3*np)
		for i := range g.Points {
			g.Points[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
		}
		ncell := 1 + rng.Intn(5)
		for c := 0; c < ncell; c++ {
			for k := 0; k < 8; k++ {
				g.Connectivity = append(g.Connectivity, int64(rng.Intn(np)))
			}
			g.Offsets = append(g.Offsets, int64(8*(c+1)))
			g.CellTypes = append(g.CellTypes, VTKHexahedron)
		}
		vals := make([]float64, np)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		if err := g.AddPointData("s", 1, vals); err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := WriteVTU(&buf, g); err != nil {
			return false
		}
		got, err := ReadVTU(&buf)
		if err != nil {
			return false
		}
		for i := range g.Points {
			if got.Points[i] != g.Points[i] {
				return false
			}
		}
		for i := range vals {
			if got.PointData[0].Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := unitHexGrid()
	g.Connectivity[2] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Error("expected connectivity range error")
	}
	g = unitHexGrid()
	g.Offsets = []int64{4} // final offset != len(connectivity)
	if err := g.Validate(); err == nil {
		t.Error("expected offset error")
	}
	g = unitHexGrid()
	g.PointData[0].Data = g.PointData[0].Data[:3]
	if err := g.Validate(); err == nil {
		t.Error("expected tuple count error")
	}
}

func TestAddArrayErrors(t *testing.T) {
	g := unitHexGrid()
	if err := g.AddPointData("bad", 1, make([]float64, 5)); err == nil {
		t.Error("expected size error")
	}
	if err := g.AddPointData("bad", 0, nil); err == nil {
		t.Error("expected component error")
	}
	if err := g.AddCellData("bad", 1, make([]float64, 2)); err == nil {
		t.Error("expected cell size error")
	}
}

func TestFindPointData(t *testing.T) {
	g := unitHexGrid()
	if a := g.FindPointData("velocity"); a == nil || a.NumComponents != 3 {
		t.Error("velocity not found")
	}
	if g.FindPointData("nope") != nil {
		t.Error("unexpected array")
	}
}

func TestBytesAccounting(t *testing.T) {
	g := unitHexGrid()
	want := int64(24*8) + 8*8 + 8 + 1 + // points, conn, offsets, types
		8*8 + 24*8 + 8 // scalar, vector, cell array
	if got := g.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

func TestWriteVTURejectsInvalid(t *testing.T) {
	g := unitHexGrid()
	g.Connectivity[0] = -1
	var buf bytes.Buffer
	if _, err := WriteVTU(&buf, g); err == nil {
		t.Error("expected validation error")
	}
}

func TestPVTUContent(t *testing.T) {
	g := unitHexGrid()
	var buf bytes.Buffer
	if _, err := WritePVTU(&buf, g, []string{"piece_0.vtu", "piece_1.vtu"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"PUnstructuredGrid",
		`Name="pressure"`,
		`Name="velocity" NumberOfComponents="3"`,
		`Source="piece_0.vtu"`,
		`Source="piece_1.vtu"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReadVTUErrors(t *testing.T) {
	if _, err := ReadVTU(strings.NewReader("not xml at all <")); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ReadVTU(strings.NewReader(`<?xml version="1.0"?><VTKFile type="ImageData"></VTKFile>`)); err == nil {
		t.Error("expected type error")
	}
	// Inline base64 is not a format WriteVTU writes: refused by name.
	inline := `<VTKFile type="UnstructuredGrid"><UnstructuredGrid><Piece NumberOfPoints="1" NumberOfCells="0">` +
		`<Points><DataArray type="Float64" Name="Points" NumberOfComponents="3" format="binary">GAAAAAAAAAA=</DataArray></Points>` +
		`</Piece></UnstructuredGrid></VTKFile>`
	if _, err := ReadVTU(strings.NewReader(inline)); err == nil || !strings.Contains(err.Error(), `"binary"`) {
		t.Errorf("inline base64 array: err = %v, want a refusal naming the format", err)
	}
}

func TestArrayNameEscaping(t *testing.T) {
	g := unitHexGrid()
	g.PointData[0].Name = `weird "<name>" & more`
	var buf bytes.Buffer
	if _, err := WriteVTU(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PointData[0].Name != g.PointData[0].Name {
		t.Errorf("name mangled: %q", got.PointData[0].Name)
	}
}

func TestWritePVD(t *testing.T) {
	var buf bytes.Buffer
	n, err := WritePVD(&buf, []PVDEntry{
		{Time: 0.1, File: "ckpt_000010.pvtu"},
		{Time: 0.2, File: "ckpt_000020.pvtu"},
	})
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	out := buf.String()
	for _, want := range []string{
		`type="Collection"`,
		`timestep="0.1"`,
		`file="ckpt_000020.pvtu"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
