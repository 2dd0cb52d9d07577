// Binary columnar snapshots: the Store's arena layout, serialized as-is.
//
// Build is O(L·n²) skyline peeling plus per-attribute sorts — cheap next
// to discovery, expensive next to a daemon restart that replays it for
// every published index. AppendBinary writes the *built* arenas (level
// offsets, level arena, tuple arena, projections, raw and normalized
// columns) in one versioned, length-prefixed, checksummed block, so
// LoadBinary recovers a store by decoding slices instead of re-indexing:
// read, checksum, slice. The JSON job snapshot remains the durable
// source of truth — a missing or corrupt binary (wrong magic, version,
// checksum, or section shape) only costs a fallback to Build.
//
// Format (all integers little-endian; ints as two's-complement uint64):
//
//	[0:8)   magic "HSKYANS1"
//	[8:12)  uint32 format version
//	[12:16) uint32 CRC-32C (Castagnoli) of everything after this header
//	[16:)   uint64 n, m, bandK, reserved (always 2048), then length-prefixed sections
//	        (uint64 count + count×8 bytes each) in fixed order:
//	        levelOff, levelArena, level, flat (n×m), lo (m), hi (m),
//	        proj (m×n, concatenated), cols (m×n float64), norm (m×n).
package answer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	binaryMagic = "HSKYANS1"
	// BinaryVersion is the snapshot format version. LoadBinary rejects
	// any other value: a format change means re-indexing from JSON, not
	// guessing at an old layout.
	BinaryVersion uint32 = 1

	binaryHeaderLen = 16

	// binaryReserved fills the header word after bandK. Readers require
	// it positive; writing a fixed value keeps the encoding of a store
	// byte-identical to every earlier writer of this format version.
	binaryReserved = 2048
)

// ErrBadBinary reports a snapshot LoadBinary refused: truncated, wrong
// magic or version, checksum mismatch, or inconsistent section shapes.
var ErrBadBinary = errors.New("answer: bad binary snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendBinary appends the store's binary snapshot to dst and returns
// the extended slice. The encoding is deterministic: the same store
// always serializes to the same bytes.
func (s *Store) AppendBinary(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, binaryMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, BinaryVersion)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // checksum placeholder
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.tuples)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.m))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.bandK)))
	dst = binary.LittleEndian.AppendUint64(dst, binaryReserved)
	dst = appendIntSection(dst, s.levelOff)
	dst = appendIntSection(dst, s.levelArena)
	dst = appendIntSection(dst, s.level)
	dst = appendIntSection(dst, s.flat)
	dst = appendIntSection(dst, s.lo)
	dst = appendIntSection(dst, s.hi)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.m*len(s.tuples)))
	for _, p := range s.proj {
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
		}
	}
	dst = appendFloatSection(dst, s.cols, len(s.tuples))
	dst = appendFloatSection(dst, s.norm, len(s.tuples))
	sum := crc32.Checksum(dst[start+binaryHeaderLen:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start+12:start+binaryHeaderLen], sum)
	return dst
}

func appendIntSection(dst []byte, vals []int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
	}
	return dst
}

func appendFloatSection(dst []byte, cols [][]float64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(cols)*n))
	for _, col := range cols {
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// binReader walks a snapshot payload with bounds checking; any overrun
// trips bad() exactly once and sticks.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) bad(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadBinary, fmt.Sprintf(format, args...))
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.bad("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *binReader) intVal() int { return int(int64(r.u64())) }

// intSection decodes a length-prefixed int section, requiring exactly
// want entries (want < 0: any count).
func (r *binReader) intSection(name string, want int) []int {
	count := r.u64()
	if r.err != nil {
		return nil
	}
	if want >= 0 && count != uint64(want) {
		r.bad("section %s has %d entries, want %d", name, count, want)
		return nil
	}
	if count > uint64(len(r.data)-r.off)/8 {
		r.bad("section %s overruns the snapshot", name)
		return nil
	}
	out := make([]int, count)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(r.data[r.off:])))
		r.off += 8
	}
	return out
}

func (r *binReader) floatSection(name string, want int) []float64 {
	count := r.u64()
	if r.err != nil {
		return nil
	}
	if count != uint64(want) {
		r.bad("section %s has %d entries, want %d", name, count, want)
		return nil
	}
	if count > uint64(len(r.data)-r.off)/8 {
		r.bad("section %s overruns the snapshot", name)
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
		r.off += 8
	}
	return out
}

// LoadBinary reconstructs a store from an AppendBinary snapshot without
// re-running any of Build's indexing: the decoded sections *are* the
// in-memory arenas. It verifies magic, version, checksum, section
// shapes, and index bounds, so a torn or doctored file returns
// ErrBadBinary instead of a corrupt store. The returned store has no
// metrics attached (see SetMetrics).
func LoadBinary(data []byte) (*Store, error) {
	if len(data) < binaryHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadBinary, len(data))
	}
	if string(data[:8]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadBinary, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != BinaryVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrBadBinary, v, BinaryVersion)
	}
	want := binary.LittleEndian.Uint32(data[12:16])
	if got := crc32.Checksum(data[binaryHeaderLen:], castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, header says %08x", ErrBadBinary, got, want)
	}
	r := &binReader{data: data, off: binaryHeaderLen}
	n := r.intVal()
	m := r.intVal()
	bandK := r.intVal()
	reserved := r.intVal()
	if r.err == nil && (n <= 0 || m <= 0 || bandK <= 0 || reserved <= 0) {
		r.bad("non-positive header fields n=%d m=%d bandK=%d reserved=%d", n, m, bandK, reserved)
	}
	if r.err != nil {
		return nil, r.err
	}
	s := &Store{m: m, bandK: bandK}
	s.levelOff = r.intSection("levelOff", -1)
	s.levelArena = r.intSection("levelArena", n)
	s.level = r.intSection("level", n)
	s.flat = r.intSection("flat", n*m)
	s.lo = r.intSection("lo", m)
	s.hi = r.intSection("hi", m)
	projFlat := r.intSection("proj", n*m)
	colsFlat := r.floatSection("cols", n*m)
	normFlat := r.floatSection("norm", n*m)
	if r.err == nil && r.off != len(data) {
		r.bad("%d trailing bytes", len(data)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	// Structural invariants the query paths index by without checking.
	if len(s.levelOff) < 2 || s.levelOff[0] != 0 || s.levelOff[len(s.levelOff)-1] != n {
		return nil, fmt.Errorf("%w: level offsets do not cover the arena", ErrBadBinary)
	}
	for i := 1; i < len(s.levelOff); i++ {
		if s.levelOff[i] < s.levelOff[i-1] {
			return nil, fmt.Errorf("%w: level offsets decrease at %d", ErrBadBinary, i)
		}
	}
	levels := len(s.levelOff) - 1
	for i, l := range s.level {
		if l < 0 || l >= levels {
			return nil, fmt.Errorf("%w: tuple %d on level %d of %d", ErrBadBinary, i, l, levels)
		}
	}
	for _, idx := range [2][]int{s.levelArena, projFlat} {
		for _, i := range idx {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("%w: tuple index %d out of range [0,%d)", ErrBadBinary, i, n)
			}
		}
	}
	s.tuples = make([][]int, n)
	for i := range s.tuples {
		s.tuples[i] = s.flat[i*m : (i+1)*m : (i+1)*m]
	}
	s.proj = make([][]int, m)
	s.cols = make([][]float64, m)
	s.norm = make([][]float64, m)
	for a := 0; a < m; a++ {
		s.proj[a] = projFlat[a*n : (a+1)*n : (a+1)*n]
		s.cols[a] = colsFlat[a*n : (a+1)*n : (a+1)*n]
		s.norm[a] = normFlat[a*n : (a+1)*n : (a+1)*n]
	}
	return s, nil
}
