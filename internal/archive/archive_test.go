package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nekrs-sensei/internal/adios"
)

// testStep builds a deterministic synthetic step.
func testStep(seq, n int) *adios.Step {
	f := make([]float64, n)
	g := make([]float64, n)
	for i := range f {
		f[i] = float64(seq*n + i)
		g[i] = -f[i]
	}
	return &adios.Step{
		Step:  int64(seq),
		Time:  0.25 * float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
		Vars: []adios.Variable{
			adios.NewF64("array/pressure", f),
			adios.NewF64("array/temperature", g),
		},
	}
}

// testStructure builds a structure-carrying step.
func testStructure() *adios.Step {
	return &adios.Step{
		Step:  0,
		Attrs: map[string]string{"mesh": "mesh", "structure": "1"},
		Vars: []adios.Variable{
			adios.NewF64("points", []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1}, 4, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3}),
			adios.NewI64("offsets", []int64{4}),
			adios.NewU8("types", []byte{10}),
		},
	}
}

// record writes steps 0..n-1 (structure first) through pooled frames
// and returns the original wire bytes per record.
func record(t *testing.T, dir string, n, payload int, opts Options) [][]byte {
	t.Helper()
	a, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pool := adios.NewFramePool()
	var frames [][]byte
	put := func(s *adios.Step) {
		f := adios.MarshalFrame(s, pool)
		frames = append(frames, append([]byte(nil), f.Bytes()...))
		id, err := a.AppendFrame(f.Bytes())
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(frames) - 1); id != want {
			t.Fatalf("record id = %d, want %d", id, want)
		}
	}
	put(testStructure())
	for s := 1; s < n; s++ {
		put(testStep(s, payload))
	}
	return frames
}

// TestRoundTripByteIdentical is the core archive contract: frames
// produced by pooled MarshalFrame come back byte for byte, through
// both the in-session index and a fresh Open.
func TestRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	frames := record(t, dir, 10, 512, Options{})

	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != len(frames) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(frames))
	}
	var buf []byte
	for id, want := range frames {
		got, err := a.ReadFrameInto(int64(id), buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: frame differs from recorded wire bytes", id)
		}
		st, err := adios.Unmarshal(got)
		if err != nil {
			t.Fatalf("record %d: %v", id, err)
		}
		if int(st.Step) != id {
			t.Fatalf("record %d decodes step %d", id, st.Step)
		}
	}
}

// TestSegmentRollover forces tiny segments and checks the records
// span multiple files while reads stay correct.
func TestSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	frames := record(t, dir, 12, 256, Options{SegmentBytes: 4096})
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments under a 4 KiB cap, got %d", len(segs))
	}
	a, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for id, want := range frames {
		got, err := a.ReadFrameInto(int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d differs after rollover", id)
		}
	}
}

// TestAppendAfterReopen checks the archive keeps growing across
// sessions (the spill tier and resumed recordings rely on it).
func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, 5, 128, Options{})
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	id, err := a.AppendStep(testStep(5, 128), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("appended id = %d, want 5", id)
	}
	got, err := a.ReadFrameInto(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, adios.Marshal(testStep(5, 128))) {
		t.Fatal("appended frame differs after reopen")
	}
}

// TestIndexRebuiltFromSegments deletes the sidecar entirely: the
// index is derived data and must be reconstructed by scanning.
func TestIndexRebuiltFromSegments(t *testing.T) {
	dir := t.TempDir()
	frames := record(t, dir, 8, 256, Options{})
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != len(frames) {
		t.Fatalf("rebuilt index has %d steps, want %d", a.Len(), len(frames))
	}
	for id, want := range frames {
		got, err := a.ReadFrameInto(int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d differs after index rebuild", id)
		}
	}
	info, err := a.Info(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Vars) != 2 || info.Step != 3 {
		t.Fatalf("rebuilt index entry malformed: %+v", info)
	}
}

// TestTornTailRecovery truncates the last segment at every possible
// byte boundary inside the final record (simulating a crash mid
// write) and checks Open always recovers exactly the intact prefix.
func TestTornTailRecovery(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	frames := record(t, pristine, 6, 200, Options{})

	segPath := filepath.Join(pristine, "segment-000000.seg")
	segRaw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	idxRaw, err := os.ReadFile(filepath.Join(pristine, indexName))
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recHeadLen + int64(len(frames[len(frames)-1])) + recTailLen
	lastOff := int64(len(segRaw)) - lastLen

	rng := rand.New(rand.NewSource(7))
	cuts := []int64{lastOff, lastOff + 1, lastOff + recHeadLen, int64(len(segRaw)) - 1}
	for i := 0; i < 12; i++ {
		cuts = append(cuts, lastOff+rng.Int63n(lastLen))
	}
	for _, cut := range cuts {
		dir := filepath.Join(base, "torn")
		os.RemoveAll(dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "segment-000000.seg"), segRaw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The index may or may not have survived ahead of the data;
		// exercise both interleavings.
		if cut%2 == 0 {
			if err := os.WriteFile(filepath.Join(dir, indexName), idxRaw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		a, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := len(frames) - 1; a.Len() != want {
			t.Fatalf("cut %d: recovered %d steps, want %d", cut, a.Len(), want)
		}
		for id := 0; id < a.Len(); id++ {
			got, err := a.ReadFrameInto(int64(id), nil)
			if err != nil {
				t.Fatalf("cut %d record %d: %v", cut, id, err)
			}
			if !bytes.Equal(got, frames[id]) {
				t.Fatalf("cut %d: record %d corrupted by recovery", cut, id)
			}
		}
		// The recovered archive must accept appends again.
		if _, err := a.AppendFrame(frames[len(frames)-1]); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if a.Len() != len(frames) {
			t.Fatalf("cut %d: append after recovery did not extend index", cut)
		}
		a.Close()

		// And a second recovery pass must be a no-op.
		b, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if b.Len() != len(frames) {
			t.Fatalf("cut %d: reopen lost records", cut)
		}
		b.Close()
	}
}

// TestTornTailFuzz flips/truncates the tail at random cut points with
// random trailing garbage appended — recovery must keep exactly the
// records whose bytes are intact and never error out.
func TestTornTailFuzz(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	frames := record(t, pristine, 8, 100, Options{SegmentBytes: 3000})
	segs, _ := filepath.Glob(filepath.Join(pristine, "segment-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("fuzz wants multiple segments, got %d", len(segs))
	}
	lastSeg := segs[len(segs)-1]
	segRaw, err := os.ReadFile(lastSeg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		dir := filepath.Join(base, "fuzz")
		os.RemoveAll(dir)
		if err := os.CopyFS(dir, os.DirFS(pristine)); err != nil {
			t.Fatal(err)
		}
		cut := rng.Int63n(int64(len(segRaw)) + 1)
		torn := append([]byte(nil), segRaw[:cut]...)
		// Half the trials append garbage after the cut (a torn write
		// that landed some bytes of the next record).
		if rng.Intn(2) == 0 {
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			torn = append(torn, junk...)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(lastSeg)), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			os.Remove(filepath.Join(dir, indexName))
		}
		a, err := Open(dir, Options{SegmentBytes: 3000})
		if err != nil {
			t.Fatalf("trial %d (cut %d): %v", trial, cut, err)
		}
		// Every surviving record must be byte-identical to its
		// original; the recovered count can be anything up to the
		// full set but the prefix must be contiguous.
		if a.Len() > len(frames) {
			t.Fatalf("trial %d: recovered %d > recorded %d", trial, a.Len(), len(frames))
		}
		for id := 0; id < a.Len(); id++ {
			got, err := a.ReadFrameInto(int64(id), nil)
			if err != nil {
				t.Fatalf("trial %d record %d: %v", trial, id, err)
			}
			if !bytes.Equal(got, frames[id]) {
				t.Fatalf("trial %d: record %d corrupted", trial, id)
			}
		}
		a.Close()
	}
}

// TestSubsetSpliceMatchesMarshal checks an index-answered subset
// frame is byte-identical to marshaling the filtered step — the
// property that makes archived subsets indistinguishable from staged
// ones on the wire.
func TestSubsetSpliceMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, 5, 300, Options{})
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	got, err := a.ReadSubsetFrameInto(2, []string{"temperature"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := testStep(2, 300)
	want := adios.Marshal(&adios.Step{
		Step: full.Step, Time: full.Time, Attrs: full.Attrs,
		Vars: full.Vars[1:2], // temperature only
	})
	if !bytes.Equal(got, want) {
		t.Fatal("spliced subset frame differs from marshaling the filtered step")
	}
	st, err := adios.Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Vars) != 1 || st.Vars[0].Name != "array/temperature" {
		t.Fatalf("subset decoded wrong vars: %+v", st.Vars)
	}

	// A structure step keeps its grid, whatever the query.
	sFrame, err := a.ReadSubsetFrameInto(0, []string{"temperature"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sFrame, adios.Marshal(testStructure())) {
		t.Fatal("structure step lost variables on read")
	}
}

// TestSourceRangeAndRecycle drives the archive through the
// StepSource seam: range query, structure always first, io.EOF at the
// end, decode-into-reuse via Recycle.
func TestSourceRangeAndRecycle(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, 10, 128, Options{})
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	src := a.Source(4, 6, nil)
	if src.Len() != 4 { // structure + steps 4,5,6
		t.Fatalf("selected %d records, want 4", src.Len())
	}
	var prev *adios.Step
	var got []int64
	for {
		st, err := src.BeginStep()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st.Step)
		if prev != nil && prev == st && st.Attrs["structure"] == "1" {
			t.Fatal("structure step decoded into recycled storage")
		}
		src.Recycle(st)
		prev = st
	}
	want := []int64{0, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestReadOnlyOpen: a read-only open of a torn archive indexes the
// intact prefix without touching the files, and refuses appends.
func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	frames := record(t, dir, 5, 100, Options{})
	segPath := filepath.Join(dir, "segment-000000.seg")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)-7] // tear the last record
	if err := os.WriteFile(segPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if want := len(frames) - 1; a.Len() != want {
		t.Fatalf("read-only indexed %d steps, want %d", a.Len(), want)
	}
	if _, err := a.AppendFrame(frames[0]); err == nil {
		t.Fatal("read-only archive accepted an append")
	}
	after, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(torn) {
		t.Fatal("read-only open modified the segment file")
	}
}

// TestRejectsGarbageFrame ensures an unscannable frame never lands in
// the store.
func TestRejectsGarbageFrame(t *testing.T) {
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.AppendFrame([]byte("not a frame")); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if a.Len() != 0 {
		t.Fatal("garbage frame indexed")
	}
}

// TestRetiredFormatRefused: an archive recorded in the retired BP05
// format is refused by name at Open, never recovered — with its index
// gone, its checksummed BP05 record is not a torn tail to truncate
// (with one segment that would be the whole archive), and with its
// index present, the index's own magic names it.
func TestRetiredFormatRefused(t *testing.T) {
	dir := t.TempDir()
	frame := []byte("BP05")
	for _, w := range []uint64{3, 0, 0, 0} { // step, time, no attrs, no vars
		frame = binary.LittleEndian.AppendUint64(frame, w)
	}
	rec := binary.LittleEndian.AppendUint64(nil, uint64(len(frame)))
	rec = append(rec, frame...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(frame, crcTable))
	seg := filepath.Join(dir, fmt.Sprintf(segPattern, 0))
	if err := os.WriteFile(seg, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{"", "AIX1"} {
		if index != "" {
			if err := os.WriteFile(filepath.Join(dir, indexName), []byte(index+"\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, ro := range []bool{false, true} {
			a, err := Open(dir, Options{ReadOnly: ro})
			if err == nil {
				a.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "BP05") {
				t.Errorf("index %q, read-only %v: Open = %v, want an error naming BP05", index, ro, err)
			}
			if st, err := os.Stat(seg); err != nil || st.Size() != int64(len(rec)) {
				t.Fatalf("index %q, read-only %v: the BP05 segment is now %v bytes (%v), was %d", index, ro, st.Size(), err, len(rec))
			}
		}
	}
}
