package dm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmesh/internal/geom"
)

// tileCover returns the 2^level x 2^level unit-square quadtree tiles
// intersecting r (boundary inclusive, indices clamped to the grid).
// Border tiles are widened to the store's data space: collapse placement
// may position merged nodes slightly outside the unit square, and those
// must land in some tile for the cover to stay exact.
func tileCover(s *Store, r geom.Rect, level int) []geom.Rect {
	n := 1 << level
	side := 1.0 / float64(n)
	clamp := func(f float64) int {
		if !(f >= 0) {
			return 0
		}
		if f > float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	ds := s.DataSpace()
	ix0, ix1 := clamp(r.MinX*float64(n)), clamp(r.MaxX*float64(n))
	iy0, iy1 := clamp(r.MinY*float64(n)), clamp(r.MaxY*float64(n))
	var out []geom.Rect
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			t := geom.Rect{
				MinX: float64(ix) * side, MinY: float64(iy) * side,
				MaxX: float64(ix+1) * side, MaxY: float64(iy+1) * side,
			}
			if ix == 0 && ds.MinX < t.MinX {
				t.MinX = ds.MinX
			}
			if ix == n-1 && ds.MaxX > t.MaxX {
				t.MaxX = ds.MaxX
			}
			if iy == 0 && ds.MinY < t.MinY {
				t.MinY = ds.MinY
			}
			if iy == n-1 && ds.MaxY > t.MaxY {
				t.MaxY = ds.MaxY
			}
			out = append(out, t)
		}
	}
	return out
}

// stitchAgainstDirect stitches r's tile cover at e, both from the
// materialized patches and from their wire round trips (the router's
// input), and requires each answer to equal the direct query, to be in
// canonical form, and to leave every input patch's encoding unchanged.
func stitchAgainstDirect(t *testing.T, s *Store, label string, r geom.Rect, e float64, level int) {
	t.Helper()
	var tiles, decoded []*TilePatch
	var wires [][]byte
	for _, tr := range tileCover(s, r, level) {
		tp, err := s.MaterializeTile(tr, e)
		if err != nil {
			t.Fatalf("%s: materialize %v: %v", label, tr, err)
		}
		w := EncodeTilePatch(tp)
		dec, err := DecodeTilePatch(w)
		if err != nil {
			t.Fatalf("%s: decode %v: %v", label, tr, err)
		}
		tiles, decoded, wires = append(tiles, tp), append(decoded, dec), append(wires, w)
	}
	want, err := s.ViewpointIndependent(r, e)
	if err != nil {
		t.Fatalf("%s: direct: %v", label, err)
	}
	for _, in := range []struct {
		name  string
		tiles []*TilePatch
	}{{"", tiles}, {" decoded", decoded}} {
		got, err := StitchTiles(r, e, in.tiles)
		if err != nil {
			t.Fatalf("%s%s: stitch: %v", label, in.name, err)
		}
		requireSameMesh(t, label+in.name, got, want)
		requireCanonicalMesh(t, label+in.name, got)
		for i, tp := range in.tiles {
			if !bytes.Equal(EncodeTilePatch(tp), wires[i]) {
				t.Fatalf("%s%s: stitch modified input tile %d", label, in.name, i)
			}
		}
	}
}

// requireCanonicalMesh checks the stitch's output form: every edge once
// with its low endpoint first, every triangle once and canonical.
func requireCanonicalMesh(t *testing.T, label string, res *Result) {
	t.Helper()
	edges := make(map[[2]int64]bool, len(res.Edges))
	for _, ed := range res.Edges {
		if ed[0] >= ed[1] || edges[ed] {
			t.Fatalf("%s: edge %v reversed, degenerate or repeated", label, ed)
		}
		edges[ed] = true
	}
	tris := make(map[geom.Triangle]bool, len(res.Triangles))
	for _, tri := range res.Triangles {
		if tri != tri.Canon() || tri.Degenerate() || tris[tri] {
			t.Fatalf("%s: triangle %v not canonical, degenerate or repeated", label, tri)
		}
		tris[tri] = true
	}
}

// TestMaterializeTileContent checks that a patch's live set is exactly
// the direct uniform query's vertex set over the same footprint.
func TestMaterializeTileContent(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	r := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.5}
	e := eAtPercentile(ds, 0.9)
	tp, err := s.MaterializeTile(r, e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ViewpointIndependent(r, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Nodes) != len(want.Vertices) {
		t.Fatalf("patch has %d nodes, direct query %d vertices", len(tp.Nodes), len(want.Vertices))
	}
	for id, p := range want.Vertices {
		n, ok := tp.Nodes[id]
		if !ok || n.Pos != p {
			t.Fatalf("node %d missing or misplaced in patch", id)
		}
	}
	if tp.FetchedRecords != want.FetchedRecords {
		t.Fatalf("patch fetched %d records, direct %d", tp.FetchedRecords, want.FetchedRecords)
	}
	// A single patch covering the whole ROI stitches to the direct result.
	res, err := StitchTiles(r, e, []*TilePatch{tp})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "single tile", res, want)
}

// TestStitchTilesExact is the subsystem's exactness property at the dm
// layer: over random ROIs, LODs, and tile-grid levels on both datasets,
// the tile-stitched mesh equals the direct query — including ROIs aligned
// on tile boundaries and degenerate zero-area ROIs.
func TestStitchTilesExact(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		s := newTestStore(t, ds)
		rng := rand.New(rand.NewSource(42))
		pcts := []float64{0.5, 0.8, 0.9, 0.97, 0.995}
		for i := 0; i < 25; i++ {
			w := 0.1 + rng.Float64()*0.6
			h := 0.1 + rng.Float64()*0.6
			x := rng.Float64() * (1 - w)
			y := rng.Float64() * (1 - h)
			r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			e := eAtPercentile(ds, pcts[i%len(pcts)])
			level := 1 + i%3
			stitchAgainstDirect(t, s, fmt.Sprintf("%s[%d]", name, i), r, e, level)
		}
		e := eAtPercentile(ds, 0.9)
		edgeCases := []geom.Rect{
			{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}, // aligned on level-2 boundaries
			{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},             // whole space, all tiles interior... and boundary
			{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},     // zero-area on a tile corner
			{MinX: 0.3, MinY: 0.3, MaxX: 0.3, MaxY: 0.9},     // zero-width strip
			{MinX: -0.5, MinY: 0.2, MaxX: 1.5, MaxY: 0.4},    // extends past the data space
		}
		for j, r := range edgeCases {
			stitchAgainstDirect(t, s, fmt.Sprintf("%s edge[%d]", name, j), r, e, 2)
		}
	}
}

// TestStitchTilesAboveMaxLOD covers the clamp path: a query coarser than
// the whole dataset still stitches to the root approximation.
func TestStitchTilesAboveMaxLOD(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	stitchAgainstDirect(t, s, "above max", geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, s.MaxE()*2, 1)
}

func TestStitchTilesLODMismatch(t *testing.T) {
	ds, _ := buildDataset(t, 6, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.9)
	tp, err := s.MaterializeTile(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StitchTiles(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, e*1.5, []*TilePatch{tp}); err == nil {
		t.Fatal("stitching tiles at the wrong LOD must fail")
	}
}

// BenchmarkStitchTiles stitches one multi-tile ROI from resident
// patches: at grid level 2 the ROI covers 4 interior tiles, merged
// wholesale, and 12 boundary tiles, clipped edge by edge — the router's
// per-query work once its patch memo is warm.
func BenchmarkStitchTiles(b *testing.B) {
	ds, _ := buildDataset(b, 65, "highland")
	s := newTestStore(b, ds)
	r := geom.Rect{MinX: 0.1, MinY: 0.15, MaxX: 0.85, MaxY: 0.8}
	e := eAtPercentile(ds, 0.8)
	var tiles []*TilePatch
	interior := 0
	for _, tr := range tileCover(s, r, 2) {
		tp, err := s.MaterializeTile(tr, e)
		if err != nil {
			b.Fatal(err)
		}
		tiles = append(tiles, tp)
		if r.ContainsRect(tr) {
			interior++
		}
	}
	if interior == 0 || interior == len(tiles) {
		b.Fatalf("%d of %d tiles interior: want both kinds", interior, len(tiles))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StitchTiles(r, e, tiles); err != nil {
			b.Fatal(err)
		}
	}
}
