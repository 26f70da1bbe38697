package vtkdata

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
)

// countingWriter tracks bytes written for storage accounting.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func f64Bytes(v []float64) []byte {
	b := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

func i64Bytes(v []int64) []byte {
	b := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(x))
	}
	return b
}

func bytesToF64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

func bytesToI64(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

// blob is one binary payload scheduled for the appended section.
type blob struct {
	data []byte
}

// header prepends the UInt64 byte-length header VTK expects.
func withHeader(data []byte) []byte {
	out := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(out, uint64(len(data)))
	copy(out[8:], data)
	return out
}

// WriteVTU serializes the grid as a VTK XML UnstructuredGrid file,
// every payload as raw bytes in the appended section after the XML
// body, and returns the number of bytes written.
func WriteVTU(w io.Writer, g *UnstructuredGrid) (int64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	cw := &countingWriter{w: w}
	var blobs []blob
	offset := 0

	// emit writes one DataArray element and schedules its payload.
	emit := func(vtkType, name string, ncomp int, payload []byte) {
		comp := ""
		if ncomp > 0 {
			comp = fmt.Sprintf(` NumberOfComponents="%d"`, ncomp)
		}
		nameAttr := ""
		if name != "" {
			nameAttr = fmt.Sprintf(` Name="%s"`, xmlEscape(name))
		}
		fmt.Fprintf(cw, `        <DataArray type="%s"%s%s format="appended" offset="%d"/>`+"\n",
			vtkType, nameAttr, comp, offset)
		blobs = append(blobs, blob{withHeader(payload)})
		offset += 8 + len(payload)
	}

	fmt.Fprint(cw, `<?xml version="1.0"?>`+"\n")
	fmt.Fprint(cw, `<VTKFile type="UnstructuredGrid" version="1.0" byte_order="LittleEndian" header_type="UInt64">`+"\n")
	fmt.Fprint(cw, "  <UnstructuredGrid>\n")
	fmt.Fprintf(cw, `    <Piece NumberOfPoints="%d" NumberOfCells="%d">`+"\n", g.NumPoints(), g.NumCells())

	fmt.Fprint(cw, "      <Points>\n")
	emit("Float64", "Points", 3, f64Bytes(g.Points))
	fmt.Fprint(cw, "      </Points>\n")

	fmt.Fprint(cw, "      <Cells>\n")
	emit("Int64", "connectivity", 0, i64Bytes(g.Connectivity))
	emit("Int64", "offsets", 0, i64Bytes(g.Offsets))
	emit("UInt8", "types", 0, g.CellTypes)
	fmt.Fprint(cw, "      </Cells>\n")

	fmt.Fprint(cw, "      <PointData>\n")
	for _, a := range g.PointData {
		emit("Float64", a.Name, a.NumComponents, f64Bytes(a.Data))
	}
	fmt.Fprint(cw, "      </PointData>\n")

	fmt.Fprint(cw, "      <CellData>\n")
	for _, a := range g.CellData {
		emit("Float64", a.Name, a.NumComponents, f64Bytes(a.Data))
	}
	fmt.Fprint(cw, "      </CellData>\n")

	fmt.Fprint(cw, "    </Piece>\n")
	fmt.Fprint(cw, "  </UnstructuredGrid>\n")
	fmt.Fprint(cw, `  <AppendedData encoding="raw">`)
	fmt.Fprint(cw, "_")
	for _, b := range blobs {
		if _, err := cw.Write(b.data); err != nil {
			return cw.n, err
		}
	}
	fmt.Fprint(cw, "</AppendedData>\n")
	fmt.Fprint(cw, "</VTKFile>\n")
	return cw.n, nil
}

func xmlEscape(s string) string {
	var b bytes.Buffer
	xml.EscapeText(&b, []byte(s)) //nolint:errcheck // Buffer writes cannot fail
	return b.String()
}

// WritePVTU writes the parallel master file referencing per-rank
// pieces; arrays must match the pieces' arrays.
func WritePVTU(w io.Writer, g *UnstructuredGrid, pieceSources []string) (int64, error) {
	cw := &countingWriter{w: w}
	fmt.Fprint(cw, `<?xml version="1.0"?>`+"\n")
	fmt.Fprint(cw, `<VTKFile type="PUnstructuredGrid" version="1.0" byte_order="LittleEndian" header_type="UInt64">`+"\n")
	fmt.Fprint(cw, `  <PUnstructuredGrid GhostLevel="0">`+"\n")
	fmt.Fprint(cw, "    <PPoints>\n")
	fmt.Fprint(cw, `      <PDataArray type="Float64" Name="Points" NumberOfComponents="3"/>`+"\n")
	fmt.Fprint(cw, "    </PPoints>\n")
	fmt.Fprint(cw, "    <PPointData>\n")
	for _, a := range g.PointData {
		fmt.Fprintf(cw, `      <PDataArray type="Float64" Name="%s" NumberOfComponents="%d"/>`+"\n",
			xmlEscape(a.Name), a.NumComponents)
	}
	fmt.Fprint(cw, "    </PPointData>\n")
	for _, src := range pieceSources {
		fmt.Fprintf(cw, `    <Piece Source="%s"/>`+"\n", xmlEscape(src))
	}
	fmt.Fprint(cw, "  </PUnstructuredGrid>\n")
	fmt.Fprint(cw, "</VTKFile>\n")
	return cw.n, nil
}

// xml parse targets for the reader.
type xVTKFile struct {
	XMLName xml.Name `xml:"VTKFile"`
	Type    string   `xml:"type,attr"`
	Grid    xGrid    `xml:"UnstructuredGrid"`
}

type xGrid struct {
	Pieces []xPiece `xml:"Piece"`
}

type xPiece struct {
	NumberOfPoints int      `xml:"NumberOfPoints,attr"`
	NumberOfCells  int      `xml:"NumberOfCells,attr"`
	Points         xSection `xml:"Points"`
	Cells          xSection `xml:"Cells"`
	PointData      xSection `xml:"PointData"`
	CellData       xSection `xml:"CellData"`
}

type xSection struct {
	Arrays []xDataArray `xml:"DataArray"`
}

type xDataArray struct {
	Type       string `xml:"type,attr"`
	Name       string `xml:"Name,attr"`
	Components string `xml:"NumberOfComponents,attr"`
	Format     string `xml:"format,attr"`
	Offset     string `xml:"offset,attr"`
	Content    string `xml:",chardata"`
}

// ReadVTU parses a VTU file produced by WriteVTU. Arrays in any other
// format (inline base64 "binary", ascii) are refused by name.
func ReadVTU(r io.Reader) (*UnstructuredGrid, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var appended []byte
	head := raw
	if idx := bytes.Index(raw, []byte("<AppendedData")); idx >= 0 {
		// The raw appended section is not valid XML: split it off and
		// close the document manually for the XML parser.
		start := bytes.IndexByte(raw[idx:], '_')
		if start < 0 {
			return nil, fmt.Errorf("vtkdata: malformed appended section")
		}
		start += idx + 1
		end := bytes.LastIndex(raw, []byte("</AppendedData>"))
		if end < start {
			return nil, fmt.Errorf("vtkdata: unterminated appended section")
		}
		appended = raw[start:end]
		head = append(append([]byte{}, raw[:idx]...), []byte("</VTKFile>")...)
	}
	var doc xVTKFile
	if err := xml.Unmarshal(head, &doc); err != nil {
		return nil, fmt.Errorf("vtkdata: parse: %w", err)
	}
	if doc.Type != "UnstructuredGrid" {
		return nil, fmt.Errorf("vtkdata: unsupported VTKFile type %q", doc.Type)
	}
	if len(doc.Grid.Pieces) != 1 {
		return nil, fmt.Errorf("vtkdata: want exactly 1 piece, got %d", len(doc.Grid.Pieces))
	}
	piece := doc.Grid.Pieces[0]

	payload := func(a *xDataArray) ([]byte, error) {
		switch a.Format {
		case "appended":
			off, err := strconv.Atoi(a.Offset)
			if err != nil {
				return nil, fmt.Errorf("vtkdata: array %q: bad offset %q", a.Name, a.Offset)
			}
			if off+8 > len(appended) {
				return nil, fmt.Errorf("vtkdata: array %q: offset %d beyond appended data", a.Name, off)
			}
			n := int(binary.LittleEndian.Uint64(appended[off:]))
			if off+8+n > len(appended) {
				return nil, fmt.Errorf("vtkdata: array %q: truncated payload", a.Name)
			}
			return appended[off+8 : off+8+n], nil
		default:
			return nil, fmt.Errorf("vtkdata: array %q: unsupported format %q", a.Name, a.Format)
		}
	}

	find := func(sec xSection, name string) *xDataArray {
		for i := range sec.Arrays {
			if sec.Arrays[i].Name == name {
				return &sec.Arrays[i]
			}
		}
		return nil
	}

	g := &UnstructuredGrid{}
	pa := find(piece.Points, "Points")
	if pa == nil {
		return nil, fmt.Errorf("vtkdata: missing Points array")
	}
	b, err := payload(pa)
	if err != nil {
		return nil, err
	}
	g.Points = bytesToF64(b)

	for _, nm := range []string{"connectivity", "offsets", "types"} {
		a := find(piece.Cells, nm)
		if a == nil {
			return nil, fmt.Errorf("vtkdata: missing %s array", nm)
		}
		b, err := payload(a)
		if err != nil {
			return nil, err
		}
		switch nm {
		case "connectivity":
			g.Connectivity = bytesToI64(b)
		case "offsets":
			g.Offsets = bytesToI64(b)
		case "types":
			g.CellTypes = append([]uint8(nil), b...)
		}
	}

	loadArrays := func(sec xSection) ([]*DataArray, error) {
		var out []*DataArray
		for i := range sec.Arrays {
			a := &sec.Arrays[i]
			b, err := payload(a)
			if err != nil {
				return nil, err
			}
			ncomp := 1
			if a.Components != "" {
				ncomp, err = strconv.Atoi(a.Components)
				if err != nil {
					return nil, fmt.Errorf("vtkdata: array %q: bad components %q", a.Name, a.Components)
				}
			}
			out = append(out, &DataArray{Name: a.Name, NumComponents: ncomp, Data: bytesToF64(b)})
		}
		return out, nil
	}
	if g.PointData, err = loadArrays(piece.PointData); err != nil {
		return nil, err
	}
	if g.CellData, err = loadArrays(piece.CellData); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("vtkdata: read grid invalid: %w", err)
	}
	return g, nil
}

// PVDEntry references one timestep dataset in a ParaView collection.
type PVDEntry struct {
	Time float64
	File string
}

// WritePVD writes a ParaView .pvd collection file referencing the
// given timestep datasets, the index ParaView uses to animate a
// checkpoint series.
func WritePVD(w io.Writer, entries []PVDEntry) (int64, error) {
	cw := &countingWriter{w: w}
	fmt.Fprint(cw, `<?xml version="1.0"?>`+"\n")
	fmt.Fprint(cw, `<VTKFile type="Collection" version="1.0" byte_order="LittleEndian">`+"\n")
	fmt.Fprint(cw, "  <Collection>\n")
	for _, e := range entries {
		fmt.Fprintf(cw, `    <DataSet timestep="%g" group="" part="0" file="%s"/>`+"\n",
			e.Time, xmlEscape(e.File))
	}
	fmt.Fprint(cw, "  </Collection>\n")
	fmt.Fprint(cw, "</VTKFile>\n")
	return cw.n, nil
}
