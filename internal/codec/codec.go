// Package codec implements the negotiated per-array wire codecs of
// the data plane: pure transform stages over float64 payloads plus
// the spec grammar consumers use to request them.
//
// Three codecs are defined, and each codes one array of one step: a
// coded frame decodes alone.
//
//	identity        raw little-endian float64 bytes, the PR 3 wire
//	transpose-delta lossless: per-element wrapping difference of the
//	                u64 bit patterns, sign-folded, then 8-lane byte
//	                transpose, then a zero-run-length pass
//	quantize        lossy with a declared absolute error bound b: each
//	                value is stored as round(x/(2b)) and reconstructed
//	                as q*(2b), guaranteeing |x - x'| <= b; values the
//	                grid cannot represent (NaN, Inf, |q| overflow)
//	                force the whole array to a verbatim fallback so
//	                the bound holds by construction
//
// Every encoded payload begins with a one-byte mode: modeRaw (0)
// means the original little-endian float64 bytes follow verbatim
// (used whenever the coded form would be larger, and for the
// quantizer's representability fallback), modeFolded (2) means the
// codec's coded form follows. Lossless codecs therefore never expand
// a payload by more than one byte, and decode is always byte-exact.
// Decoders refuse every other mode byte with ErrMode.
//
// The package is deliberately free of any adios/staging imports: it
// transforms slices. Frame framing lives in internal/adios.
//
// ID 2 was temporal-delta, the same difference against the array of
// the step the receiver decoded last. Its chains tied every coded
// frame to a connection's history, so it is retired from the wire:
// ParseSpec refuses it by name (ErrRetired) and frame walks refuse its
// codec byte. AppendTemporalDelta and DecodeTemporalDelta remain as
// transforms only.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nekrs-sensei/internal/cpuid"
	"nekrs-sensei/internal/lebytes"
)

// ID identifies a codec on the wire (one byte per variable record).
type ID uint8

const (
	// Identity ships raw little-endian float64 bytes.
	Identity ID = 0
	// TransposeDelta is the lossless spatial codec.
	TransposeDelta ID = 1
	// TemporalDelta is the retired step-over-step codec: no spec
	// selects it and no frame may carry it (ErrRetired).
	TemporalDelta ID = 2
	// Quantize is the lossy bounded-error codec.
	Quantize ID = 3

	numCodecs = 4
)

// Payload mode bytes (first byte of every encoded payload). Mode 1
// was the coded form over two's-complement deltas; it only ever
// travelled on live connections (archives and spill store plain
// BP06), so it was replaced, not versioned, and is refused.
const (
	modeRaw    = 0 // verbatim little-endian float64 bytes follow
	modeFolded = 2 // sign-folded delta lanes, transposed and zero-RLE'd, follow
)

// ErrMode marks a payload whose mode byte no encoder of this format
// writes.
var ErrMode = errors.New("codec: unknown payload mode")

// ErrRetired marks a request for, or a payload of, the retired
// temporal-delta codec.
var ErrRetired = errors.New("codec: temporal-delta is retired (every coded frame decodes alone; transpose-delta is the lossless codec)")

var idNames = [numCodecs]string{"identity", "transpose-delta", "temporal-delta", "quantize"}

// Name returns the wire name of a codec ID ("identity", ...).
func (id ID) Name() string {
	if int(id) < len(idNames) {
		return idNames[id]
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// Choice is one negotiated codec selection: which codec, and for
// Quantize the absolute error bound.
type Choice struct {
	ID    ID
	Bound float64 // absolute error bound; > 0 iff ID == Quantize
}

// String renders the choice in spec grammar ("quantize:0.001").
func (c Choice) String() string {
	if c.ID == Quantize {
		return c.ID.Name() + ":" + strconv.FormatFloat(c.Bound, 'g', -1, 64)
	}
	return c.ID.Name()
}

// parseChoice parses "name" or "quantize:BOUND".
func parseChoice(s string) (Choice, error) {
	name, param, hasParam := strings.Cut(s, ":")
	var id ID
	found := false
	for i, n := range idNames {
		if n == name {
			id, found = ID(i), true
			break
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("codec: unknown codec %q", name)
	}
	if id == TemporalDelta {
		return Choice{}, ErrRetired
	}
	if id != Quantize {
		if hasParam {
			return Choice{}, fmt.Errorf("codec: %s takes no parameter", name)
		}
		return Choice{ID: id}, nil
	}
	if !hasParam {
		return Choice{}, fmt.Errorf("codec: quantize requires an error bound, e.g. quantize:1e-3")
	}
	b, err := strconv.ParseFloat(param, 64)
	if err != nil || math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
		return Choice{}, fmt.Errorf("codec: bad quantize bound %q (want a finite value > 0)", param)
	}
	return Choice{ID: Quantize, Bound: b}, nil
}

// Spec is a consumer's negotiated codec selection: a default choice
// applied to every float64 array plus per-array overrides keyed by
// bare array name (without the wire's "array/" prefix).
type Spec struct {
	Default  Choice
	PerArray map[string]Choice
}

// ParseSpec parses the hello's codecs entries. Each entry is either a
// bare choice ("transpose-delta", "quantize:1e-3") setting the
// default for all arrays, or "ARRAY=CHOICE" overriding one array.
// Empty or nil entries yield the identity spec.
func ParseSpec(entries []string) (Spec, error) {
	sp := Spec{}
	haveDefault := false
	for _, e := range entries {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if name, choice, ok := strings.Cut(e, "="); ok {
			name, choice = strings.TrimSpace(name), strings.TrimSpace(choice)
			if name == "" {
				return Spec{}, fmt.Errorf("codec: empty array name in entry %q", e)
			}
			ch, err := parseChoice(choice)
			if err != nil {
				return Spec{}, err
			}
			if sp.PerArray == nil {
				sp.PerArray = map[string]Choice{}
			}
			if _, dup := sp.PerArray[name]; dup {
				return Spec{}, fmt.Errorf("codec: array %q has two codec entries", name)
			}
			sp.PerArray[name] = ch
			continue
		}
		ch, err := parseChoice(e)
		if err != nil {
			return Spec{}, err
		}
		if haveDefault {
			return Spec{}, fmt.Errorf("codec: two default codec entries (%q and %q)", sp.Default, e)
		}
		sp.Default = ch
		haveDefault = true
	}
	return sp, nil
}

// IsIdentity reports whether the spec leaves every array uncoded —
// the wire then stays plain BP06 end to end.
func (s Spec) IsIdentity() bool {
	if s.Default.ID != Identity {
		return false
	}
	for _, c := range s.PerArray {
		if c.ID != Identity {
			return false
		}
	}
	return true
}

// For returns the choice for the named array (bare name, no prefix).
func (s Spec) For(name string) Choice {
	if c, ok := s.PerArray[name]; ok {
		return c
	}
	return s.Default
}

// Entries renders the spec back to canonical sorted hello entries.
// The identity spec renders to nil (no codecs field on the wire).
func (s Spec) Entries() []string {
	var out []string
	if s.Default.ID != Identity {
		out = append(out, s.Default.String())
	}
	names := make([]string, 0, len(s.PerArray))
	for n := range s.PerArray {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := s.PerArray[n]
		if c.ID == Identity && s.Default.ID == Identity {
			continue // no-op override; canonical form drops it
		}
		out = append(out, n+"="+c.String())
	}
	return out
}

// Key returns a canonical string identity for the spec, usable as a
// map key when sharing one encode among same-spec consumers.
func (s Spec) Key() string { return strings.Join(s.Entries(), ",") }

// Scratch holds the reusable intermediates of one encode or decode
// stream. Buffers grow to the largest array seen and are reused, so
// steady-state transforms allocate nothing.
type Scratch struct {
	u []uint64 // delta lanes
	b []byte   // transposed bytes
}

func (sc *Scratch) lanes(n int) []uint64 {
	if cap(sc.u) < n {
		sc.u = make([]uint64, n)
	}
	return sc.u[:n]
}

func (sc *Scratch) bytes(n int) []byte {
	if cap(sc.b) < n {
		sc.b = make([]byte, n)
	}
	return sc.b[:n]
}

// --- stage: sign-folded u64 delta ---

// fold maps a wrapping difference to its magnitude with the sign in
// bit 0 (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so a small delta of
// either sign has zero high bytes. Two's-complement deltas put 0xFF
// there for every negative one, which the zero-RLE cannot code.
func fold(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unfold inverts fold.
func unfold(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// deltaBits fills dst with the folded first-order difference of the
// bit patterns of src (dst[0] is bits(src[0]) folded) and returns the
// OR of all lanes, whose zero bytes name the byte planes that are zero
// in every lane.
func deltaBits(dst []uint64, src []float64) (or uint64) {
	prev := uint64(0)
	for i, x := range src {
		b := math.Float64bits(x)
		z := fold(b - prev)
		dst[i] = z
		or |= z
		prev = b
	}
	return or
}

// undeltaBits inverts deltaBits: a wrapping prefix sum back into
// float64 bit patterns.
func undeltaBits(dst []float64, src []uint64) {
	acc := uint64(0)
	for i, z := range src {
		acc += unfold(z)
		dst[i] = math.Float64frombits(acc)
	}
}

// deltaAgainst is deltaBits against base's bit patterns instead of the
// previous element's (AppendTemporalDelta's inner stage). Lengths must
// match.
func deltaAgainst(dst []uint64, src, base []float64) (or uint64) {
	for i, x := range src {
		z := fold(math.Float64bits(x) - math.Float64bits(base[i]))
		dst[i] = z
		or |= z
	}
	return or
}

// undeltaAgainst inverts deltaAgainst.
func undeltaAgainst(dst []float64, src []uint64, base []float64) {
	for i, z := range src {
		dst[i] = math.Float64frombits(math.Float64bits(base[i]) + unfold(z))
	}
}

// --- stage: 8-lane byte transpose ---

// transpose writes the little-endian bytes of src plane-major into
// dst: dst[p*n+i] = byte p of src[i], len(dst) = 8*len(src). Grouping
// same-significance bytes is what turns small deltas into long zero
// runs. Planes whose byte of or — the OR of all of src — is zero hold
// nothing but zeros, which the RLE stage emits as runs without reading
// them: the Go loop leaves them unwritten (the AVX2 kernel, which takes
// whole blocks of 32 lanes first, writes their zeros).
func transpose(dst []byte, src []uint64, or uint64) {
	n := len(src)
	live, k := livePlanes(or)
	i := 0
	if cpuid.AVX2 && n >= 32 {
		_ = dst[8*n-1]
		i = n &^ 31
		transposeAVX2(&dst[0], &src[0], n, i)
	}
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		var t [8]uint64
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = transpose8(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		for _, p := range live[:k] {
			binary.LittleEndian.PutUint64(dst[p*n+i:], t[p])
		}
	}
	for ; i < n; i++ {
		for _, p := range live[:k] {
			dst[p*n+i] = byte(src[i] >> (8 * p))
		}
	}
}

// untranspose inverts transpose, len(src) = 8*len(dst). The AVX2
// kernel takes whole blocks of 32 lanes first; the Go loop then skips
// the planes whose part it reads is all zero.
func untranspose(dst []uint64, src []byte) {
	n := len(dst)
	i := 0
	if cpuid.AVX2 && n >= 32 {
		_ = src[8*n-1]
		i = n &^ 31
		untransposeAVX2(&dst[0], &src[0], n, i)
	}
	var or uint64
	for p := 0; p < 8; p++ {
		if !allZero(src[p*n+i : (p+1)*n]) {
			or |= 0xff << (8 * p)
		}
	}
	live, k := livePlanes(or)
	for ; i+8 <= n; i += 8 {
		var t [8]uint64
		for _, p := range live[:k] {
			t[p] = binary.LittleEndian.Uint64(src[p*n+i:])
		}
		d := dst[i : i+8 : i+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = transpose8(t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7])
	}
	for ; i < n; i++ {
		var v uint64
		for _, p := range live[:k] {
			v |= uint64(src[p*n+i]) << (8 * p)
		}
		dst[i] = v
	}
}

// livePlanes lists, as live[:k], the byte planes in which or — the OR
// of a set of lanes — is not zero.
func livePlanes(or uint64) (live [8]int, k int) {
	for p := 0; p < 8; p++ {
		if byte(or>>(8*p)) != 0 {
			live[k] = p
			k++
		}
	}
	return live, k
}

// transpose8 transposes the 8×8 byte matrix whose row r is the
// little-endian bytes of word r: byte c of result r is byte r of
// argument c. Three rounds swap the off-diagonal blocks of every 2×2,
// 4×4 and 8×8 square, eight bytes per operation; it is its own
// inverse.
func transpose8(a0, a1, a2, a3, a4, a5, a6, a7 uint64) (_, _, _, _, _, _, _, _ uint64) {
	const m1, m2, m4 = 0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff
	t := (a0>>8 ^ a1) & m1
	a0, a1 = a0^t<<8, a1^t
	t = (a2>>8 ^ a3) & m1
	a2, a3 = a2^t<<8, a3^t
	t = (a4>>8 ^ a5) & m1
	a4, a5 = a4^t<<8, a5^t
	t = (a6>>8 ^ a7) & m1
	a6, a7 = a6^t<<8, a7^t

	t = (a0>>16 ^ a2) & m2
	a0, a2 = a0^t<<16, a2^t
	t = (a1>>16 ^ a3) & m2
	a1, a3 = a1^t<<16, a3^t
	t = (a4>>16 ^ a6) & m2
	a4, a6 = a4^t<<16, a6^t
	t = (a5>>16 ^ a7) & m2
	a5, a7 = a5^t<<16, a7^t

	t = (a0>>32 ^ a4) & m4
	a0, a4 = a0^t<<32, a4^t
	t = (a1>>32 ^ a5) & m4
	a1, a5 = a1^t<<32, a5^t
	t = (a2>>32 ^ a6) & m4
	a2, a6 = a2^t<<32, a6^t
	t = (a3>>32 ^ a7) & m4
	a3, a7 = a3^t<<32, a7^t
	return a0, a1, a2, a3, a4, a5, a6, a7
}

func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// --- stage: zero run-length coding ---

// Token grammar: t < 128 copies t+1 literal bytes that follow;
// t >= 128 emits t-127 zero bytes (runs of 1..128). A literal ends
// at a run of three or more zeros, at 128 bytes or at the end of the
// input, and never ends in a zero: one or two zeros inside it cost
// less than the token that breaking it would add. Worst case (no
// zeros at all) expands n bytes to n + ceil(n/128), and a token
// yields at most 128 bytes, which is the bound decoders size against.

// zrleMax is the most bytes the coding of n bytes can take.
func zrleMax(n int) int { return n + (n+127)/128 }

// zeroBytes returns 0x80 in every byte of the result whose byte of v
// is zero, and zero elsewhere.
func zeroBytes(v uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ^((v&low7 + low7) | v | low7)
}

// zrleAppend appends the coding of src to dst, as the continuation of
// a stream that ends in zeros zero bytes not yet written as tokens,
// and returns the trailing zeros of src it holds back in turn
// (zrleFlush writes them): a run then codes the same however the
// stream was cut into calls. dst must have room for the whole stream,
// zrleMax of its length.
func zrleAppend(dst []byte, zeros int, src []byte) ([]byte, int) {
	i, n := 0, len(src)
	for i < n {
		if src[i] == 0 {
			j := i + 1
			for j+8 <= n && binary.LittleEndian.Uint64(src[j:]) == 0 {
				j += 8
			}
			for j < n && src[j] == 0 {
				j++
			}
			zeros += j - i
			i = j
			continue
		}
		dst, zeros = zrleFlush(dst, zeros), 0
		// src[i] starts a literal; p looks for the three zeros that end
		// it, a word at a time: eight bytes on when none of them is
		// zero, else six, so that a run begun in the last two is seen
		// whole by the next word.
		lim := min(i+128, n)
		p := i + 1
		for p < lim {
			if p+8 > n {
				if src[p] == 0 && p+2 < n && src[p+1] == 0 && src[p+2] == 0 {
					break
				}
				p++
				continue
			}
			z := zeroBytes(binary.LittleEndian.Uint64(src[p:]))
			if z == 0 {
				p += 8
				continue
			}
			if run := z & (z >> 8) & (z >> 16); run != 0 {
				p += bits.TrailingZeros64(run) >> 3
				break
			}
			p += 6
		}
		lit := min(p, lim) - i
		for src[i+lit-1] == 0 {
			lit--
		}
		w := len(dst)
		dst = dst[:w+1+lit]
		dst[w] = byte(lit - 1)
		copy(dst[w+1:], src[i:i+lit])
		i += lit
	}
	return dst, zeros
}

// zrleFlush appends run tokens for zeros zero bytes.
func zrleFlush(dst []byte, zeros int) []byte {
	for ; zeros >= 128; zeros -= 128 {
		dst = append(dst, 255)
	}
	if zeros > 0 {
		dst = append(dst, byte(127+zeros))
	}
	return dst
}

// zrleDecode decodes src into dst, which must be exactly the original
// length. Returns an error on truncated input or length mismatch
// (hostile frames must not panic).
func zrleDecode(dst, src []byte) error {
	w := 0
	i, n := 0, len(src)
	for i < n {
		t := src[i]
		i++
		if t >= 128 {
			run := int(t) - 127
			if w+run > len(dst) {
				return fmt.Errorf("codec: zero run overflows payload (%d > %d)", w+run, len(dst))
			}
			clear(dst[w : w+run])
			w += run
			continue
		}
		lit := int(t) + 1
		if i+lit > n {
			return fmt.Errorf("codec: truncated literal (%d bytes missing)", i+lit-n)
		}
		if w+lit > len(dst) {
			return fmt.Errorf("codec: literal overflows payload (%d > %d)", w+lit, len(dst))
		}
		copy(dst[w:], src[i:i+lit])
		i += lit
		w += lit
	}
	if w != len(dst) {
		return fmt.Errorf("codec: decoded %d bytes, want %d", w, len(dst))
	}
	return nil
}

// --- composed codecs ---

// appendRaw appends the modeRaw form: the verbatim little-endian
// bytes of src.
func appendRaw(dst []byte, src []float64) []byte {
	dst = append(dst, modeRaw)
	body := len(dst)
	dst = slices.Grow(dst, 8*len(src))[:body+8*len(src)]
	lebytes.Put(dst[body:], src)
	return dst
}

// decodeRaw decodes a modeRaw body (everything after the mode byte).
func decodeRaw(dst []float64, body []byte) error {
	if len(body) != 8*len(dst) {
		return fmt.Errorf("codec: raw payload is %d bytes, want %d", len(body), 8*len(dst))
	}
	lebytes.Get(dst, body)
	return nil
}

// appendLanes runs the shared tail of every coded form — transpose
// the folded delta lanes, zero-RLE the bytes — and appends the smaller
// of the coded and raw forms to dst. or is the OR of all lanes.
func appendLanes(dst []byte, lanes []uint64, or uint64, src []float64, sc *Scratch) []byte {
	n := len(lanes)
	if n < 3 {
		// A plane this short is not a run that ends a literal, so the
		// stream cannot be cut at it.
		or = ^uint64(0)
	}
	tb := sc.bytes(8 * n)
	transpose(tb, lanes, or)
	mark := len(dst)
	dst = append(slices.Grow(dst, 1+zrleMax(8*n)), modeFolded)
	// Code each stretch of non-zero planes; the zero planes between
	// them only lengthen the run the next stretch starts after.
	zeros := 0
	for p := 0; p < 8; {
		if byte(or>>(8*p)) == 0 {
			zeros += n
			p++
			continue
		}
		q := p + 1
		for q < 8 && byte(or>>(8*q)) != 0 {
			q++
		}
		dst, zeros = zrleAppend(dst, zeros, tb[p*n:q*n])
		p = q
	}
	dst = zrleFlush(dst, zeros)
	if len(dst)-mark > 1+8*n {
		return appendRaw(dst[:mark], src)
	}
	return dst
}

// payloadBody splits a payload into its mode and body: coded reports
// the folded form, false the verbatim one. Any other mode byte —
// including 1, the two's-complement form no encoder writes any more —
// is ErrMode: a decoder never guesses.
func payloadBody(enc []byte) (body []byte, coded bool, err error) {
	if len(enc) < 1 {
		return nil, false, fmt.Errorf("codec: empty payload")
	}
	switch enc[0] {
	case modeRaw:
		return enc[1:], false, nil
	case modeFolded:
		return enc[1:], true, nil
	}
	return nil, false, fmt.Errorf("%w %d", ErrMode, enc[0])
}

// decodeLanes inverts appendLanes' coded form into the lane scratch.
func decodeLanes(body []byte, n int, sc *Scratch) ([]uint64, error) {
	tb := sc.bytes(8 * n)
	if err := zrleDecode(tb, body); err != nil {
		return nil, err
	}
	lanes := sc.lanes(n)
	untranspose(lanes, tb)
	return lanes, nil
}

// AppendTransposeDelta appends the transpose-delta coding of src.
func AppendTransposeDelta(dst []byte, src []float64, sc *Scratch) []byte {
	lanes := sc.lanes(len(src))
	return appendLanes(dst, lanes, deltaBits(lanes, src), src, sc)
}

// DecodeTransposeDelta decodes into dst, which must already have the
// array's length.
func DecodeTransposeDelta(dst []float64, enc []byte, sc *Scratch) error {
	body, coded, err := payloadBody(enc)
	if err != nil {
		return err
	}
	if !coded {
		return decodeRaw(dst, body)
	}
	lanes, err := decodeLanes(body, len(dst), sc)
	if err != nil {
		return err
	}
	undeltaBits(dst, lanes)
	return nil
}

// AppendTemporalDelta appends the coding of src against base (the same
// array one step earlier); len(base) must equal len(src). No wire
// carries it (ErrRetired): it is a transform the benchmark probes.
func AppendTemporalDelta(dst []byte, src, base []float64, sc *Scratch) []byte {
	lanes := sc.lanes(len(src))
	return appendLanes(dst, lanes, deltaAgainst(lanes, src, base), src, sc)
}

// DecodeTemporalDelta inverts AppendTemporalDelta against the same
// base.
func DecodeTemporalDelta(dst []float64, base []float64, enc []byte, sc *Scratch) error {
	body, coded, err := payloadBody(enc)
	if err != nil {
		return err
	}
	if !coded {
		return decodeRaw(dst, body)
	}
	if len(base) != len(dst) {
		return fmt.Errorf("codec: temporal base has %d elements, want %d", len(base), len(dst))
	}
	lanes, err := decodeLanes(body, len(dst), sc)
	if err != nil {
		return err
	}
	undeltaAgainst(dst, lanes, base)
	return nil
}

// AppendQuantize appends the bounded-error quantization of src:
// values become integers q = round(x / (2*bound)), reconstructed as
// q*(2*bound). Every element is verified at encode time — any value
// the grid cannot hold within the bound (NaN, Inf, |q| beyond 2^53,
// rounding pathologies) switches the whole array to the verbatim
// modeRaw fallback, so decode(encode(x)) is within bound for every
// finite input and bit-exact for arrays that fall back. The integers
// ship as folded first-order differences.
func AppendQuantize(dst []byte, src []float64, bound float64, sc *Scratch) []byte {
	step := 2 * bound
	if math.IsInf(step, 0) {
		// 2*bound overflowed; no quantization grid exists.
		return appendRaw(dst, src)
	}
	n := len(src)
	lanes := sc.lanes(n)
	i, prev, or, ok := 0, uint64(0), uint64(0), true
	for ok && i < n {
		j := n
		if cpuid.AVX2 {
			// The kernel takes whole blocks until one it cannot take
			// exactly; the Go loop takes that block (or the tail), and
			// the kernel resumes after it.
			if m := (n - i) &^ 3; m > 0 {
				var k int
				k, prev, or = quantizeAVX2(&lanes[i], &src[i], m, step, bound, prev, or)
				i += k
			}
			j = min(i+4, n)
		}
		prev, or, ok = quantizeGo(lanes[i:j], src[i:j], step, bound, prev, or)
		i = j
	}
	if !ok {
		return appendRaw(dst, src)
	}
	return appendLanes(dst, lanes, or, src, sc)
}

// quantizeGo is AppendQuantize's loop over src from the previous
// integer prev and the lanes' OR so far; ok is false at the first
// value that fails the check.
func quantizeGo(lanes []uint64, src []float64, step, bound float64, prev, or uint64) (_, _ uint64, ok bool) {
	for i, x := range src {
		q := math.Round(x / step)
		// Verify representability and the bound on the actual
		// reconstruction. Beyond 2^53 the float grid itself is coarser
		// than the int mapping is faithful; reject and fall back. Both
		// comparisons are written to treat NaN as a failure.
		if !(math.Abs(q) <= 1<<53) || !(math.Abs(x-q*step) <= bound) {
			return prev, or, false
		}
		b := uint64(int64(q))
		z := fold(b - prev)
		lanes[i] = z
		or |= z
		prev = b
	}
	return prev, or, true
}

// DecodeQuantize decodes into dst with the bound the frame declared.
func DecodeQuantize(dst []float64, bound float64, enc []byte, sc *Scratch) error {
	body, coded, err := payloadBody(enc)
	if err != nil {
		return err
	}
	if !coded {
		return decodeRaw(dst, body)
	}
	lanes, err := decodeLanes(body, len(dst), sc)
	if err != nil {
		return err
	}
	step := 2 * bound
	n := len(lanes)
	i, acc := 0, uint64(0)
	for i < n {
		j := n
		if cpuid.AVX2 {
			// As in AppendQuantize: the Go loop takes the block the
			// kernel stopped at (sums it cannot convert exactly).
			if m := (n - i) &^ 3; m > 0 {
				var k int
				k, acc = dequantizeAVX2(&dst[i], &lanes[i], m, step, acc)
				i += k
			}
			j = min(i+4, n)
		}
		acc = dequantizeGo(dst[i:j], lanes[i:j], step, acc)
		i = j
	}
	return nil
}

// dequantizeGo is DecodeQuantize's loop over lanes from the running
// integer acc, which it returns.
func dequantizeGo(dst []float64, lanes []uint64, step float64, acc uint64) uint64 {
	for i, z := range lanes {
		acc += unfold(z)
		dst[i] = float64(int64(acc)) * step
	}
	return acc
}
