// Package archive is the persistent tier of the data plane: a
// BP-inspired, append-only on-disk step store holding the exact wire
// frames adios.MarshalFrame produces — zero re-encode on record,
// byte-identical frames on replay.
//
// The paper's central comparison is in situ/in-transit analysis
// versus post hoc file I/O through ADIOS2 BP files; this package
// closes the loop by making the same wire format durable. A recorded
// run replays through the unchanged SST wire protocol (Replay), so
// every live consumer — sensei-endpoint, intransit.Group — runs post
// hoc with zero code changes; and the staging hub's `spill`
// backpressure policy demotes evicted steps here instead of dropping
// them, so a slow consumer loses nothing while the producer never
// blocks.
//
// # On-disk format
//
// An archive is a directory of size-capped segment files plus one
// sidecar index:
//
//	segment-000000.seg   data records, append-only
//	segment-000001.seg
//	index.bin            one index record per step, append-only
//
// A data record is
//
//	u64 frameLen | frame bytes (BP06 ...) | u32 crc32(frame)
//
// and an index record is
//
//	"AIX2" | u64 payloadLen | payload | u32 crc32(payload)
//
// where the payload carries the step's ordinal, sim step/time, the
// structure flag, its (segment, offset, length) location and every
// variable's byte span inside the frame (adios.ScanFrame). The index
// is derived data: anything it is missing is rebuilt by scanning the
// segments on Open.
//
// # Recovery rule
//
// A crash can tear the tail of the last segment and/or leave the
// index behind the data. Open recovers in two moves: index records
// are trusted up to the first torn/mismatched one (the index file is
// truncated there), then the segments are scanned from the last
// indexed record — valid records (length in bounds, BP magic, crc)
// are re-indexed, and the first invalid record truncates the final
// segment, discarding the torn tail. Data before the tear is never
// touched. An archive of the retired BP05 format (index magic "AIX1",
// or a checksummed record holding a BP05/BPC5 frame) is refused by
// name, never recovered: its records are not torn, only old.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"nekrs-sensei/internal/adios"
)

const (
	segPattern = "segment-%06d.seg"
	indexName  = "index.bin"
	idxMagic   = "AIX2" // indexes BP06 frames
	oldMagic   = "AIX1" // indexed BP05 frames: refused by name

	recHeadLen = 8 // u64 frame length
	recTailLen = 4 // u32 crc32(frame)
)

// crcTable selects the Castagnoli polynomial — hardware-accelerated
// on amd64/arm64, so checksumming a frame costs a small fraction of
// marshaling it and the record path stays within its overhead budget.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultSegmentBytes caps a segment at 64 MiB unless configured.
const DefaultSegmentBytes = 64 << 20

// Options configures an archive opened for appending.
type Options struct {
	// SegmentBytes caps each segment file; a record that would grow
	// the current segment past the cap rolls over to a fresh one (a
	// segment always holds at least one record). Default 64 MiB.
	SegmentBytes int64
	// Sync fsyncs segment and index after every append — durable to
	// the step, at the cost of one fsync pair per step. Off by
	// default: the crash-recovery rule already bounds loss to the
	// torn tail.
	Sync bool
	// ReadOnly opens without write recovery: a torn tail (or a
	// mid-write record of a live recording) simply ends the index
	// instead of truncating files, and AppendFrame is refused. Safe
	// for inspecting an archive another process is still recording.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// StepInfo is one index entry: where a step's frame lives and what it
// contains.
type StepInfo struct {
	ID        int64   // record ordinal in the archive
	Step      int64   // simulation step number
	Time      float64 // simulation time
	Structure bool    // the frame carries the grid structure

	Segment  int   // segment file ordinal
	Off      int64 // record start (the length word) within the segment
	FrameLen int64 // frame bytes (excluding record head/tail)

	// VarsOff is the frame-relative offset of the variable-count word
	// (the frame header ends there); Vars spans every variable.
	// Subset frames are spliced from these without decoding.
	VarsOff int64
	Vars    []adios.VarSpan
}

// Bytes reports the step's frame size.
func (si *StepInfo) Bytes() int64 { return si.FrameLen }

// ArrayNames lists the step's "array/"-prefixed variables (the
// per-step field data, as opposed to structure/metadata variables).
func (si *StepInfo) ArrayNames() []string {
	var out []string
	for i := range si.Vars {
		if name, ok := arrayName(si.Vars[i].Name); ok {
			out = append(out, name)
		}
	}
	return out
}

// arrayName strips the wire protocol's "array/" prefix; ok reports
// whether the variable is an array at all.
func arrayName(varName string) (string, bool) {
	const prefix = "array/"
	if len(varName) > len(prefix) && varName[:len(prefix)] == prefix {
		return varName[len(prefix):], true
	}
	return "", false
}

// Archive is an open step store: appends go to the tail, reads are
// answered from the index. Safe for concurrent use (the spill tier
// appends from the hub's spiller while consumers read back).
type Archive struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []*os.File // open segment files, ordinal-indexed
	curSize int64      // size of the last segment
	idx     *os.File   // sidecar index, positioned at its end
	index   []StepInfo
	closed  bool

	// pendingIdx buffers entries recovered by reindexTail until load
	// reopens the sidecar and appends them.
	pendingIdx []StepInfo
}

// Open opens (or creates) the archive directory, runs crash
// recovery, and returns a handle ready for both appends and reads.
func Open(dir string, opts Options) (*Archive, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{dir: dir, opts: opts}
	if err := a.load(); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// segPath returns the path of segment n.
func (a *Archive) segPath(n int) string {
	return filepath.Join(a.dir, fmt.Sprintf(segPattern, n))
}

// load opens the segment files and the index and reconciles them
// (the recovery rule in the package comment).
func (a *Archive) load() error {
	names, err := filepath.Glob(filepath.Join(a.dir, "segment-*.seg"))
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	sort.Strings(names)
	mode := os.O_RDWR
	if a.opts.ReadOnly {
		mode = os.O_RDONLY
	}
	for i, name := range names {
		if name != a.segPath(i) {
			return fmt.Errorf("archive: segment files not contiguous: found %s, want %s", filepath.Base(name), fmt.Sprintf(segPattern, i))
		}
		f, err := os.OpenFile(name, mode, 0o644)
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		a.segs = append(a.segs, f)
	}

	idxTrust, err := a.loadIndex()
	if err != nil {
		return err
	}
	if err := a.reindexTail(); err != nil {
		return err
	}
	if a.opts.ReadOnly {
		a.pendingIdx = nil
		return nil
	}

	// Open the index for appending, truncated to the trusted prefix
	// if recovery shortened it (reindexTail re-appended the rest).
	idx, err := os.OpenFile(filepath.Join(a.dir, indexName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	a.idx = idx
	if err := idx.Truncate(idxTrust); err != nil {
		return fmt.Errorf("archive: truncating torn index: %w", err)
	}
	if _, err := idx.Seek(idxTrust, 0); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	for i := range a.pendingIdx {
		if err := a.writeIndexRecord(&a.pendingIdx[i]); err != nil {
			return err
		}
	}
	a.pendingIdx = nil

	if n := len(a.segs); n > 0 {
		size, err := a.segs[n-1].Seek(0, 2)
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		a.curSize = size
	}
	return nil
}

// loadIndex parses the sidecar, keeping entries up to the first
// torn/invalid record or the first entry pointing past the actual
// data. Returns the byte length of the trusted index prefix.
func (a *Archive) loadIndex() (int64, error) {
	raw, err := os.ReadFile(filepath.Join(a.dir, indexName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	segSizes := make([]int64, len(a.segs))
	for i, f := range a.segs {
		size, err := f.Seek(0, 2)
		if err != nil {
			return 0, fmt.Errorf("archive: %w", err)
		}
		segSizes[i] = size
	}
	if len(raw) >= 4 && string(raw[:4]) == oldMagic {
		return 0, fmt.Errorf("archive: %s: index %s of BP05 frames, this build reads BP06: re-record it", a.dir, oldMagic)
	}
	var trusted int64
	pos := int64(0)
	for {
		si, next, ok := parseIndexRecord(raw, pos)
		if !ok {
			break
		}
		// An entry is only trusted if its data is actually present in
		// the segments. For the final segment — the only one a crash
		// can tear — presence is not enough: writeback can land the
		// index page before the data page, so the record's checksum is
		// verified too. Sealed earlier segments were durable long
		// before the tail and are trusted by bounds.
		if si.ID != int64(len(a.index)) ||
			si.Segment >= len(a.segs) ||
			si.Off+recHeadLen+si.FrameLen+recTailLen > segSizes[si.Segment] {
			break
		}
		if si.Segment == len(a.segs)-1 {
			if _, _, ok := readRecordAt(a.segs[si.Segment], si.Off, segSizes[si.Segment]); !ok {
				break
			}
		}
		a.index = append(a.index, si)
		trusted = next
		pos = next
	}
	return trusted, nil
}

// parseIndexRecord decodes one index record at pos; ok is false on a
// torn or corrupt record (recovery truncates there).
func parseIndexRecord(raw []byte, pos int64) (si StepInfo, next int64, ok bool) {
	n := int64(len(raw))
	if pos+4+8 > n || string(raw[pos:pos+4]) != idxMagic {
		return si, 0, false
	}
	plen := int64(binary.LittleEndian.Uint64(raw[pos+4:]))
	body := pos + 4 + 8
	if plen < 0 || body+plen+4 > n {
		return si, 0, false
	}
	payload := raw[body : body+plen]
	crc := binary.LittleEndian.Uint32(raw[body+plen:])
	if crc32.Checksum(payload, crcTable) != crc {
		return si, 0, false
	}
	p := int64(0)
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(payload[p:])
		p += 8
		return v
	}
	defer func() {
		if recover() != nil { // truncated payload despite crc: treat as torn
			ok = false
		}
	}()
	si.ID = int64(u64())
	si.Step = int64(u64())
	si.Time = math.Float64frombits(u64())
	si.Structure = payload[p] == 1
	p++
	si.Segment = int(u64())
	si.Off = int64(u64())
	si.FrameLen = int64(u64())
	si.VarsOff = int64(u64())
	nvars := int(u64())
	if nvars < 0 || int64(nvars) > plen {
		return si, 0, false
	}
	si.Vars = make([]adios.VarSpan, nvars)
	for i := range si.Vars {
		vs := &si.Vars[i]
		nameLen := int64(binary.LittleEndian.Uint16(payload[p:]))
		p += 2
		vs.Name = string(payload[p : p+nameLen])
		p += nameLen
		vs.Kind = adios.Kind(payload[p])
		p++
		vs.RecordOff = int64(u64())
		vs.RecordLen = int64(u64())
		vs.PayloadOff = int64(u64())
		vs.PayloadLen = int64(u64())
		vs.Elems = int64(u64())
	}
	if p != plen {
		return si, 0, false
	}
	return si, body + plen + 4, true
}

// encodeIndexRecord serializes one index record.
func encodeIndexRecord(si *StepInfo) []byte {
	var payload []byte
	u64 := func(v uint64) { payload = binary.LittleEndian.AppendUint64(payload, v) }
	u64(uint64(si.ID))
	u64(uint64(si.Step))
	u64(math.Float64bits(si.Time))
	if si.Structure {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	u64(uint64(si.Segment))
	u64(uint64(si.Off))
	u64(uint64(si.FrameLen))
	u64(uint64(si.VarsOff))
	u64(uint64(len(si.Vars)))
	for i := range si.Vars {
		vs := &si.Vars[i]
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(vs.Name)))
		payload = append(payload, vs.Name...)
		payload = append(payload, byte(vs.Kind))
		u64(uint64(vs.RecordOff))
		u64(uint64(vs.RecordLen))
		u64(uint64(vs.PayloadOff))
		u64(uint64(vs.PayloadLen))
		u64(uint64(vs.Elems))
	}
	out := make([]byte, 0, 4+8+len(payload)+4)
	out = append(out, idxMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return out
}

// writeIndexRecord appends one record to the sidecar.
func (a *Archive) writeIndexRecord(si *StepInfo) error {
	if _, err := a.idx.Write(encodeIndexRecord(si)); err != nil {
		return fmt.Errorf("archive: index append: %w", err)
	}
	if a.opts.Sync {
		if err := a.idx.Sync(); err != nil {
			return fmt.Errorf("archive: index sync: %w", err)
		}
	}
	return nil
}

// reindexTail scans segment data past the last indexed record,
// re-indexing valid records and truncating the final segment at the
// first torn one. Recovered entries are buffered in pendingIdx; load
// appends them to the reopened sidecar.
func (a *Archive) reindexTail() error {
	seg, off := 0, int64(0)
	if n := len(a.index); n > 0 {
		last := &a.index[n-1]
		seg = last.Segment
		off = last.Off + recHeadLen + last.FrameLen + recTailLen
	}
	for ; seg < len(a.segs); seg, off = seg+1, 0 {
		f := a.segs[seg]
		size, err := f.Seek(0, 2)
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		for off < size {
			frame, flen, ok := readRecordAt(f, off, size)
			var si StepInfo
			var err error
			if ok {
				// A record that passes crc but does not scan as a frame
				// is treated like a tear in the final segment — unless it
				// is a frame of a retired format, which is never torn
				// data to truncate but an archive to refuse.
				if si, err = a.buildInfo(frame, seg, off, flen); errors.Is(err, adios.ErrRetiredFormat) {
					return err
				}
			}
			if !ok || err != nil {
				if seg != len(a.segs)-1 {
					if err != nil {
						return fmt.Errorf("archive: %w", err)
					}
					return fmt.Errorf("archive: corrupt record mid-archive (segment %d offset %d): only the final segment may be torn", seg, off)
				}
				if a.opts.ReadOnly {
					return nil // a torn (or still being written) tail just ends the read-only index
				}
				if terr := f.Truncate(off); terr != nil {
					return fmt.Errorf("archive: truncating torn tail: %w", terr)
				}
				size = off
				break
			}
			a.index = append(a.index, si)
			a.pendingIdx = append(a.pendingIdx, si)
			off += recHeadLen + flen + recTailLen
		}
	}
	return nil
}

// readRecordAt reads and validates one data record; ok is false when
// the record is torn (out of bounds, bad magic, or crc mismatch).
func readRecordAt(f *os.File, off, size int64) (frame []byte, flen int64, ok bool) {
	var head [recHeadLen]byte
	if off+recHeadLen > size {
		return nil, 0, false
	}
	if _, err := f.ReadAt(head[:], off); err != nil {
		return nil, 0, false
	}
	flen = int64(binary.LittleEndian.Uint64(head[:]))
	if flen < 4 || off+recHeadLen+flen+recTailLen > size {
		return nil, 0, false
	}
	buf := make([]byte, flen+recTailLen)
	if _, err := f.ReadAt(buf, off+recHeadLen); err != nil {
		return nil, 0, false
	}
	frame = buf[:flen]
	crc := binary.LittleEndian.Uint32(buf[flen:])
	if crc32.Checksum(frame, crcTable) != crc {
		return nil, 0, false
	}
	return frame, flen, true
}

// buildInfo scans a frame into its index entry.
func (a *Archive) buildInfo(frame []byte, seg int, off, flen int64) (StepInfo, error) {
	fi, err := adios.ScanFrame(frame)
	if err != nil {
		return StepInfo{}, fmt.Errorf("archive: segment %d offset %d: %w", seg, off, err)
	}
	return StepInfo{
		ID: int64(len(a.index)), Step: fi.Step, Time: fi.Time, Structure: fi.Structure,
		Segment: seg, Off: off, FrameLen: flen, VarsOff: fi.VarsOff, Vars: fi.Vars,
	}, nil
}

// AppendFrame appends one marshaled step (the exact wire frame) and
// returns its record ordinal. Implements adios.FrameSink and the
// append half of staging.SpillStore. The frame is scanned (never
// decoded) to build its index entry; an unscannable frame is
// rejected before anything is written.
func (a *Archive) AppendFrame(frame []byte) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, fmt.Errorf("archive: append on closed archive")
	}
	if a.opts.ReadOnly {
		return 0, fmt.Errorf("archive: append on read-only archive")
	}
	recLen := recHeadLen + int64(len(frame)) + recTailLen
	if len(a.segs) == 0 || a.curSize > 0 && a.curSize+recLen > a.opts.SegmentBytes {
		f, err := os.OpenFile(a.segPath(len(a.segs)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return 0, fmt.Errorf("archive: new segment: %w", err)
		}
		a.segs = append(a.segs, f)
		a.curSize = 0
	}
	seg := len(a.segs) - 1
	si, err := a.buildInfo(frame, seg, a.curSize, int64(len(frame)))
	if err != nil {
		return 0, err
	}
	f := a.segs[seg]
	var head [recHeadLen]byte
	binary.LittleEndian.PutUint64(head[:], uint64(len(frame)))
	var tail [recTailLen]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(frame, crcTable))
	for _, b := range [][]byte{head[:], frame, tail[:]} {
		if _, err := f.Write(b); err != nil {
			return 0, fmt.Errorf("archive: segment append: %w", err)
		}
	}
	if a.opts.Sync {
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("archive: segment sync: %w", err)
		}
	}
	a.curSize += recLen
	if err := a.writeIndexRecord(&si); err != nil {
		return 0, err
	}
	a.index = append(a.index, si)
	return si.ID, nil
}

// AppendStep marshals a step through the pool and appends its frame —
// the convenience path for producers that hold steps, not frames.
func (a *Archive) AppendStep(s *adios.Step, pool *adios.FramePool) (int64, error) {
	if pool == nil {
		return a.AppendFrame(adios.Marshal(s))
	}
	f := adios.MarshalFrame(s, pool)
	defer f.Release()
	return a.AppendFrame(f.Bytes())
}

// Len reports the number of recorded steps.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.index)
}

// Steps snapshots the index (entries share the Vars slices; treat
// them as read-only).
func (a *Archive) Steps() []StepInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]StepInfo(nil), a.index...)
}

// Info returns the index entry for one record.
func (a *Archive) Info(id int64) (StepInfo, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 0 || id >= int64(len(a.index)) {
		return StepInfo{}, fmt.Errorf("archive: record %d out of range [0,%d)", id, len(a.index))
	}
	return a.index[id], nil
}

// Bytes reports the archive's total frame payload (excluding record
// framing and the index).
func (a *Archive) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for i := range a.index {
		n += a.index[i].FrameLen
	}
	return n
}

// ArrayNames reports the union of array names across all recorded
// steps, sorted — the advertisement a replay publishes.
func (a *Archive) ArrayNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for i := range a.index {
		for _, name := range a.index[i].ArrayNames() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// grow returns buf resized to n, reallocating only when capacity is
// short — the grow-only read scratch of every read path.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// ReadFrameInto reads record id's full frame into buf (grown as
// needed) and returns the frame slice. Implements the read half of
// staging.SpillStore.
func (a *Archive) ReadFrameInto(id int64, buf []byte) ([]byte, error) {
	si, err := a.Info(id)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	f := a.segs[si.Segment]
	a.mu.Unlock()
	buf = grow(buf, si.FrameLen)
	if _, err := f.ReadAt(buf, si.Off+recHeadLen); err != nil {
		return nil, fmt.Errorf("archive: read record %d: %w", id, err)
	}
	return buf, nil
}

// ReadSubsetFrameInto answers an array-subset query from the index:
// it splices a valid frame containing only the requested arrays (and
// every non-array variable, the grid structure included) by reading
// the frame header and the selected variable records (adios.KeepVar,
// the rule the staging hub applies on delivery) — unrequested payload
// bytes are never read from disk. A nil/empty subset reads the full
// frame. The spliced bytes are identical to marshaling the
// subset-filtered step.
func (a *Archive) ReadSubsetFrameInto(id int64, arrays []string, buf []byte) ([]byte, error) {
	return a.readSelected(id, -1, -1, arrays, buf)
}

// inRange reports whether the step lies in the range query [from, to]
// (negative bounds are open).
func (si *StepInfo) inRange(from, to int64) bool {
	return (from < 0 || si.Step >= from) && (to < 0 || si.Step <= to)
}

// selection is what a range query [from, to] with an array subset
// reads of the record: in range, the subset (whole when it is empty);
// outside it, where Select picks only structure records, the structure
// variables alone (KeepVar over no arrays), so the record bootstraps
// the grid without carrying a step the query excluded.
func (si *StepInfo) selection(from, to int64, arrays []string) (keep []string, whole bool) {
	if !si.inRange(from, to) {
		return nil, false
	}
	return arrays, len(arrays) == 0
}

// selectedLen is the size of the frame readSelected returns.
func (si *StepInfo) selectedLen(from, to int64, arrays []string) int64 {
	keep, whole := si.selection(from, to, arrays)
	if whole {
		return si.FrameLen
	}
	n, _ := spliceLen(si, keep)
	return n
}

// readSelected reads record id as the range query [from, to] with the
// array subset delivers it (selection), into buf grown as needed.
func (a *Archive) readSelected(id, from, to int64, arrays []string, buf []byte) ([]byte, error) {
	si, err := a.Info(id)
	if err != nil {
		return nil, err
	}
	keep, whole := si.selection(from, to, arrays)
	if whole {
		return a.ReadFrameInto(id, buf)
	}
	total, kept := spliceLen(&si, keep)
	a.mu.Lock()
	f := a.segs[si.Segment]
	a.mu.Unlock()
	buf = grow(buf, total)
	frameBase := si.Off + recHeadLen
	if _, err := f.ReadAt(buf[:si.VarsOff], frameBase); err != nil {
		return nil, fmt.Errorf("archive: read record %d header: %w", id, err)
	}
	binary.LittleEndian.PutUint64(buf[si.VarsOff:], uint64(kept))
	pos := si.VarsOff + 8
	for i := range si.Vars {
		vs := &si.Vars[i]
		if !adios.KeepVar(vs.Name, keep) {
			continue
		}
		if _, err := f.ReadAt(buf[pos:pos+vs.RecordLen], frameBase+vs.RecordOff); err != nil {
			return nil, fmt.Errorf("archive: read record %d var %q: %w", id, vs.Name, err)
		}
		pos += vs.RecordLen
	}
	return buf, nil
}

// spliceLen is the size of the frame spliced from this record's
// variables that adios.KeepVar keeps for arrays, and their number.
func spliceLen(si *StepInfo, arrays []string) (total int64, kept int) {
	total = si.VarsOff + 8
	for i := range si.Vars {
		if adios.KeepVar(si.Vars[i].Name, arrays) {
			total += si.Vars[i].RecordLen
			kept++
		}
	}
	return total, kept
}

// IsArchiveDir reports whether dir looks like an archive (holds an
// index sidecar or at least one segment).
func IsArchiveDir(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, indexName)); err == nil {
		return true
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(segPattern, 0))); err == nil {
		return true
	}
	return false
}

// RankDirs resolves a recording's per-rank layout: rank-* archive
// subdirectories of dir in order, or dir itself when it is a
// single-rank archive. The layout mirrors the live topology — one
// archive per simulation rank — so a replay serves one hub per rank
// and writes the same shape of contact file the live run did.
func RankDirs(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "rank-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var out []string
	for _, m := range matches {
		if IsArchiveDir(m) {
			out = append(out, m)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	if IsArchiveDir(dir) {
		return []string{dir}, nil
	}
	return nil, fmt.Errorf("archive: %s holds neither rank-*/ archives nor an archive itself", dir)
}

// RankDir names rank r's archive directory under a recording root.
func RankDir(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%04d", rank))
}

// Sync flushes the current segment and index to stable storage.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.segs); n > 0 {
		if err := a.segs[n-1].Sync(); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	if a.idx != nil {
		if err := a.idx.Sync(); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return nil
}

// Close releases the file handles. The archive on disk stays valid;
// reopen with Open.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	var first error
	for _, f := range a.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if a.idx != nil {
		if err := a.idx.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
