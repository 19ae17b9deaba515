package dm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

func materializeWirePatches(t *testing.T, s *Store, r geom.Rect, e float64, level int) []*TilePatch {
	t.Helper()
	var tiles []*TilePatch
	for _, tr := range tileCover(s, r, level) {
		tp, err := s.MaterializeTile(tr, e)
		if err != nil {
			t.Fatalf("materialize %v: %v", tr, err)
		}
		tiles = append(tiles, tp)
	}
	return tiles
}

func requireSamePatch(t *testing.T, label string, got, want *TilePatch) {
	t.Helper()
	if got.Rect != want.Rect || got.E != want.E || got.FetchedRecords != want.FetchedRecords {
		t.Fatalf("%s: header mismatch: got (%v, %g, %d) want (%v, %g, %d)",
			label, got.Rect, got.E, got.FetchedRecords, want.Rect, want.E, want.FetchedRecords)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for id, wn := range want.Nodes {
		gn, ok := got.Nodes[id]
		if !ok {
			t.Fatalf("%s: node %d missing", label, id)
		}
		g, w := *gn, *wn
		if len(g.Conn) == 0 && len(w.Conn) == 0 { // nil vs empty is not a wire difference
			g.Conn, w.Conn = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: node %d mismatch:\n got %+v\nwant %+v", label, id, g, w)
		}
	}
	if !reflect.DeepEqual(got.edges, want.edges) {
		t.Fatalf("%s: edges mismatch", label)
	}
	if !reflect.DeepEqual(got.tris, want.tris) {
		t.Fatalf("%s: triangles mismatch", label)
	}
	if !reflect.DeepEqual(got.outPairs, want.outPairs) {
		t.Fatalf("%s: outPairs mismatch", label)
	}
}

// TestTilePatchWireRoundTrip: every materialized patch round-trips the
// wire codec field-exactly (EHigh = +Inf on roots included), and the
// encoding is deterministic — encode(decode(encode(p))) == encode(p).
func TestTilePatchWireRoundTrip(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for _, pct := range []float64{0.5, 0.9, 0.995} {
		e := eAtPercentile(ds, pct)
		for i, tp := range materializeWirePatches(t, s, r, e, 2) {
			label := fmt.Sprintf("pct %g tile %d", pct, i)
			enc := EncodeTilePatch(tp)
			dec, err := DecodeTilePatch(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			requireSamePatch(t, label, dec, tp)
			if !bytes.Equal(EncodeTilePatch(dec), enc) {
				t.Fatalf("%s: re-encode differs from original encoding", label)
			}
		}
	}
	// The coarsest query keeps root nodes live; their EHigh is +Inf and
	// must survive the trip bit-exactly.
	tp, err := s.MaterializeTile(r, s.MaxE()*2)
	if err != nil {
		t.Fatal(err)
	}
	sawInf := false
	for _, n := range tp.Nodes {
		if math.IsInf(n.EHigh, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("expected an infinite EHigh in the root patch")
	}
	dec, err := DecodeTilePatch(EncodeTilePatch(tp))
	if err != nil {
		t.Fatal(err)
	}
	requireSamePatch(t, "root patch", dec, tp)
}

// TestStitchDecodedTiles is the cluster's correctness linchpin: stitching
// decoded wire patches gives the same mesh as stitching the originals —
// and therefore the same mesh as the direct single-node query.
func TestStitchDecodedTiles(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 8, name)
		s := newTestStore(t, ds)
		r := geom.Rect{MinX: 0.15, MinY: 0.2, MaxX: 0.8, MaxY: 0.7}
		e := eAtPercentile(ds, 0.9)
		tiles := materializeWirePatches(t, s, r, e, 2)
		decoded := make([]*TilePatch, len(tiles))
		for i, tp := range tiles {
			dec, err := DecodeTilePatch(EncodeTilePatch(tp))
			if err != nil {
				t.Fatalf("%s: tile %d: %v", name, i, err)
			}
			decoded[i] = dec
		}
		got, err := StitchTiles(r, e, decoded)
		if err != nil {
			t.Fatalf("%s: stitch decoded: %v", name, err)
		}
		want, err := s.ViewpointIndependent(r, e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, name+" decoded", got, want)
	}
}

// TestTilePatchWireCorruption: truncations, bit flips, and malicious
// counts all fail with ErrCorrupt and never panic.
func TestTilePatchWireCorruption(t *testing.T) {
	ds, _ := buildDataset(t, 7, "highland")
	s := newTestStore(t, ds)
	tp, err := s.MaterializeTile(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}, eAtPercentile(ds, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeTilePatch(tp)

	requireCorrupt := func(label string, b []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: decode panicked: %v", label, p)
			}
		}()
		if _, err := DecodeTilePatch(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", label, err)
		}
	}

	requireCorrupt("empty", nil)
	requireCorrupt("bad magic", append([]byte("XXXX"), enc[4:]...))
	badVer := append([]byte(nil), enc...)
	badVer[4] = 99
	requireCorrupt("bad version", badVer)
	// Every truncation point must fail cleanly (a prefix can't be a valid
	// encoding: the decoder requires exhausting the input exactly).
	for _, cut := range []int{5, 12, 44, 60, len(enc) / 3, len(enc) / 2, len(enc) - 1} {
		if cut < len(enc) {
			requireCorrupt(fmt.Sprintf("truncated at %d", cut), enc[:cut])
		}
	}
	// Trailing garbage is corruption too.
	requireCorrupt("trailing bytes", append(append([]byte(nil), enc...), 0xff))
	// Blow up the node count: the remaining bytes can't hold it.
	huge := append([]byte(nil), enc[:53]...) // magic+ver+rect+e = 4+1+40+8 = 53
	huge = append(huge, 0x01)                // fetched = 1
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f)
	requireCorrupt("impossible node count", huge)

	// Canonicality: bytes EncodeTilePatch never emits are rejected, even
	// where they would spell a valid patch. The version 1 spelled in two
	// bytes:
	requireCorrupt("non-minimal varint", append(append([]byte("DMTP"), 0x81, 0x00), enc[5:]...))
	// Hand-built patches of empty nodes in the given ID order; ascending
	// order is the only spelling.
	patch := func(ids ...uint64) []byte {
		b := append([]byte(tileWireMagic), tileWireVersion)
		b = wire.AppendF64(b, 0, 0, 1, 1, 0.5)
		b = append(b, 0, byte(len(ids))) // fetched, node count
		for _, id := range ids {
			b = binary.AppendUvarint(b, id)
			b = wire.AppendF64(b, 0, 0, 0, 0, 0, 0)
			b = append(b, 1, 1, 1, 1, 1) // five pm.None refs
			b = wire.AppendF64(b, 0, 0, 0, 0)
			b = append(b, 0) // no connections
		}
		return append(b, 0, 0, 0) // no edges, triangles or out-pairs
	}
	if dec, err := DecodeTilePatch(patch(3, 5)); err != nil || !bytes.Equal(EncodeTilePatch(dec), patch(3, 5)) {
		t.Fatalf("hand-built patch does not round-trip: %v", err)
	}
	requireCorrupt("descending node ids", patch(5, 3))
	requireCorrupt("duplicate node ids", patch(3, 3))
	requireCorrupt("node id above MaxInt64", patch(1<<63))
}
