package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

var errTest = errors.New("test corrupt")

// TestUvarintMinimalOnly: the slice reader and the streamed reader
// accept exactly the spellings binary.AppendUvarint emits and agree on
// every other byte string.
func TestUvarintMinimalOnly(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 35, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		r := NewReader(enc, "t", errTest)
		if got := r.Uvarint("v"); r.Finish() != nil || got != v {
			t.Fatalf("Uvarint(%x) = %d, %v", enc, got, r.Err())
		}
		if got, err := ReadUvarint(bytes.NewReader(enc), errTest); err != nil || got != v {
			t.Fatalf("ReadUvarint(%x) = %d, %v", enc, got, err)
		}
	}
	for _, bad := range [][]byte{
		{0x80, 0x00},                                // 0 in two bytes
		{0x81, 0x80, 0x00},                          // 1 in three bytes
		bytes.Repeat([]byte{0xff}, 10),              // overlong
		append(bytes.Repeat([]byte{0xff}, 9), 0x02), // overflows 64 bits
	} {
		r := NewReader(bad, "t", errTest)
		if r.Uvarint("v"); !errors.Is(r.Err(), errTest) {
			t.Errorf("Uvarint(%x): err = %v, want the sentinel", bad, r.Err())
		}
		if _, err := ReadUvarint(bytes.NewReader(bad), errTest); !errors.Is(err, errTest) {
			t.Errorf("ReadUvarint(%x): err = %v, want the sentinel", bad, err)
		}
	}
	if _, err := ReadUvarint(bytes.NewReader([]byte{0x80}), errTest); err != io.ErrUnexpectedEOF {
		t.Errorf("ReadUvarint cut mid-varint: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReaderRejects: counts the bytes left cannot hold, floats with a
// second spelling, and trailing bytes all fail with the sentinel, and
// the first failure sticks.
func TestReaderRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
		read func(r *Reader)
	}{
		{"count", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count("n", 2) }},
		{"raw dyadic", AppendF64(nil, 0.5), func(r *Reader) { r.NonDyadicF64("x") }},
		{"dyadic range", binary.AppendUvarint(nil, Zigzag(dyadicMaxM+1)), func(r *Reader) { r.Dyadic("x") }},
		{"trailing", []byte{1, 2, 3}, func(r *Reader) { r.Byte("b") }},
		{"truncated u64", []byte{1, 2, 3}, func(r *Reader) { r.Byte("b"); r.U64("x") }},
	} {
		r := NewReader(c.b, "t", errTest)
		c.read(&r)
		if err := r.Finish(); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the sentinel", c.name, err)
		}
		first := r.Err()
		r.Failf("later")
		if r.Uvarint("v") != 0 || r.Err() != first {
			t.Errorf("%s: error is not sticky", c.name)
		}
	}
}
