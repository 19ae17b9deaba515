package dm

import (
	"bytes"
	"errors"
	"testing"

	"dmesh/internal/geom"
)

// FuzzTilePatchDecode feeds arbitrary bytes to the tile-patch wire
// decoder — the exact bytes a cluster router reads off a possibly
// truncating or corrupting shard connection. It must never panic, every
// rejection must wrap ErrCorrupt so the router's failover classifies it
// as a failed attempt, and every accepted input must re-encode to
// itself.
//
// The seed corpus is a real encoded patch cut at every byte offset, so
// the fuzzer starts at every field boundary of the format (header,
// counts, node records, overflow chains, checksum) rather than having
// to discover the framing from scratch.
func FuzzTilePatchDecode(f *testing.F) {
	ds, _ := buildDataset(f, 17, "highland")
	s := newTestStore(f, ds)
	tp, err := s.MaterializeTile(geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.8}, eAtPercentile(ds, 0.9))
	if err != nil {
		f.Fatal(err)
	}
	enc := EncodeTilePatch(tp)
	for i := 0; i <= len(enc); i++ {
		f.Add(enc[:i:i])
	}
	// Trailing garbage after a complete patch must be rejected too.
	f.Add(append(append([]byte{}, enc...), 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTilePatch(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// The decoder is canonical: it accepts only what the encoder
		// emits, so an accepted input re-encodes to itself.
		if re := EncodeTilePatch(got); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not the identity:\n in: %x\nout: %x", data, re)
		}
	})
}
