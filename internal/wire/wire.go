// Package wire holds the byte-level rules shared by every decoder of
// untrusted bytes in this repository: the DMTP tile patch, the DMPS
// progressive stream, the TraceWire trace and the packed node record.
//
// The rules (DESIGN.md, "Wire encoding rules"):
//
//   - integers are encoding/binary uvarints, signed ones zigzag-mapped
//     first, and a decoder accepts only the minimal spelling;
//   - a collection count is bounded by the bytes left, since every
//     element takes at least one byte, so a hostile count fails instead
//     of committing the decoder to a huge allocation;
//   - a float is 8 raw little-endian IEEE-754 bytes, or, on the dyadic
//     fast path, the zigzag varint of its index v*2^12, and a decoder
//     rejects a raw float the fast path could spell;
//   - every error wraps the caller's sentinel, so each layer's
//     ErrCorrupt means one thing to errors.Is.
//
// Together they make every encoding unique: re-encoding a decoded value
// reproduces the input bytes, so byte equality is value equality.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Reader is a bounds-checked cursor over one encoded buffer. Its error
// is sticky: the first failure cuts the buffer at the failing offset,
// so every later read finds no bytes and returns zero, and a decoder
// can read a whole record and check Err (or Finish) once.
type Reader struct {
	b        []byte
	off      int
	err      error
	prefix   string
	sentinel error
}

// NewReader returns a reader over b whose errors read
// "<prefix>: <what> at offset <n>" and wrap sentinel.
func NewReader(b []byte, prefix string, sentinel error) Reader {
	return Reader{b: b, prefix: prefix, sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Failf records a failure at the current offset unless one is already
// recorded. Decoders use it for semantic violations too, so every
// rejection carries the same prefix, offset and sentinel.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s at offset %d: %w", r.prefix, fmt.Sprintf(format, args...), r.off, r.sentinel)
		r.b = r.b[:r.off]
	}
}

// Finish returns the first failure, or a failure if bytes are left
// over: a decoder that accepts trailing bytes accepts many spellings of
// one value.
func (r *Reader) Finish() error {
	if r.off != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Magic consumes the format's magic bytes.
func (r *Reader) Magic(magic string) {
	if len(r.b)-r.off < len(magic) || string(r.b[r.off:r.off+len(magic)]) != magic {
		r.Failf("bad magic")
		return
	}
	r.off += len(magic)
}

// Uvarint reads a minimal uvarint.
func (r *Reader) Uvarint(what string) uint64 {
	v, n := uvarint(r.b[r.off:])
	if n == 0 {
		r.Failf("truncated, overlong or non-minimal %s", what)
		return 0
	}
	r.off += n
	return v
}

// uvarint decodes the minimal uvarint at the start of b and its length,
// or returns length 0 if b holds none. It stays small enough to inline,
// so the hot loops of Uvarint and Deltas make no call per value.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == binary.MaxVarintLen64 {
			break
		}
		if c < 0x80 {
			// A zero final byte adds no value bits: the spelling is
			// not minimal. A tenth byte above 1 overflows 64 bits.
			if (i > 0 && c == 0) || (i == binary.MaxVarintLen64-1 && c > 1) {
				break
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// Deltas appends to dst up to n running sums of zigzag-varint deltas
// starting from prev, stopping early where the buffer ends.
func (r *Reader) Deltas(dst []int64, prev int64, n int, what string) []int64 {
	for ; n > 0 && r.off < len(r.b); n-- {
		v, k := uvarint(r.b[r.off:])
		if k == 0 {
			r.Failf("truncated, overlong or non-minimal %s", what)
			break
		}
		r.off += k
		prev += Unzigzag(v)
		dst = append(dst, prev)
	}
	return dst
}

// Varint reads a minimal zigzag varint, the spelling of
// binary.AppendVarint.
func (r *Reader) Varint(what string) int64 { return Unzigzag(r.Uvarint(what)) }

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.Failf("truncated %s", what)
	return 0
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64(what string) uint64 {
	if len(r.b)-r.off >= 8 {
		r.off += 8
		return binary.LittleEndian.Uint64(r.b[r.off-8:])
	}
	r.Failf("truncated %s", what)
	return 0
}

// F64 reads a raw IEEE-754 float; every bit pattern is accepted.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// NonDyadicF64 reads a raw float in a field that also has the dyadic
// spelling: a value the fast path could spell is rejected.
func (r *Reader) NonDyadicF64(what string) float64 {
	v := r.F64(what)
	if _, ok := DyadicIndex(v); ok {
		r.Failf("raw-spelled dyadic %s", what)
		return 0
	}
	return v
}

// Dyadic reads a float spelled as its dyadic index; an index
// DyadicIndex would never produce is rejected.
func (r *Reader) Dyadic(what string) float64 {
	m := r.Varint(what)
	if m > dyadicMaxM || m < -dyadicMaxM {
		r.Failf("dyadic %s index %d out of range", what, m)
		return 0
	}
	return FromDyadicIndex(m)
}

// Count reads a collection length whose elements take at least
// minBytes each; a count the remaining bytes cannot hold fails.
func (r *Reader) Count(what string, minBytes int) int {
	v := r.Uvarint(what)
	if r.err == nil && v > uint64(len(r.b)-r.off)/uint64(minBytes) {
		r.Failf("%s count %d exceeds the %d bytes left", what, v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

// ReadUvarint reads a minimal uvarint from br, for the streamed DMPS
// header and frame lengths. A read error passes through (io.EOF before
// the first byte, io.ErrUnexpectedEOF after it); an overlong or
// non-minimal spelling wraps sentinel.
func ReadUvarint(br io.ByteReader, sentinel error) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("wire: non-minimal uvarint: %w", sentinel)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("wire: overlong uvarint: %w", sentinel)
}

// Zigzag maps signed values to unsigned so small magnitudes of either
// sign take short varints.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// UvarintLen returns how many bytes binary.AppendUvarint emits for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendF64 appends each value's raw IEEE-754 bits, little endian.
func AppendF64(buf []byte, vs ...float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// The dyadic fast path: v is storable as an integer grid index when
// v*2^12 round-trips exactly. 2^12 captures the terrain grids (i/2^k
// for sizes 2^k+1) and several collapse-midpoint levels while keeping
// indices of unit-square coordinates at 2-byte varints. dyadicMaxM
// bounds the index so its varint never exceeds 6 bytes (beyond that raw
// 8-byte floats are as small and simpler).
const (
	dyadicShift = 12
	dyadicScale = float64(int64(1) << dyadicShift)
	dyadicMaxM  = int64(1) << 41
)

// DyadicIndex reports whether v is exactly representable as a dyadic
// grid index m = v*2^12: m must be integral, within ±2^41, and
// float64(m)/2^12 must restore v's exact bit pattern, which excludes
// NaNs, infinities and -0.0 by construction.
func DyadicIndex(v float64) (int64, bool) {
	m := v * dyadicScale
	if m != math.Trunc(m) || m > float64(dyadicMaxM) || m < -float64(dyadicMaxM) {
		return 0, false
	}
	k := int64(m)
	if math.Float64bits(float64(k)/dyadicScale) != math.Float64bits(v) {
		return 0, false
	}
	return k, true
}

// FromDyadicIndex inverts DyadicIndex: the float64 whose dyadic index
// is m. Exact for every m DyadicIndex can produce.
func FromDyadicIndex(m int64) float64 { return float64(m) / dyadicScale }
