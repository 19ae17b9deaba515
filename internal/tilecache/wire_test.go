package tilecache_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/tilecache"
)

// wireKeys is a seeded access sequence of tile keys: random ROI covers
// at random ladder rungs, flattened in cover order.
func wireKeys(c *tilecache.Cache, seed int64, n int) []tilecache.Key {
	g := c.Grid()
	ladder := g.Ladder()
	rng := rand.New(rand.NewSource(seed))
	var keys []tilecache.Key
	for _, r := range randRects(rng, n) {
		band, _ := g.SnapE(ladder[rng.Intn(len(ladder))])
		keys = append(keys, g.Cover(r, g.LevelFor(r), band)...)
	}
	return keys
}

// residentWire sums the wire lengths of every resident tile, read back
// through PatchWireTraced (a hit: residency is unchanged). Valid when
// every resident tile was last fetched through PatchWireTraced.
func residentWire(t *testing.T, c *tilecache.Cache) int {
	t.Helper()
	sum := 0
	for _, ts := range c.TileStats() {
		w, _, err := c.PatchWireTraced(ts.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += len(w)
	}
	return sum
}

// TestPatchWireEncodedOnce: every resident tile's wire is
// dm.EncodeTilePatch of its patch byte for byte, built on the first
// PatchWireTraced and returned as the same bytes afterwards, and
// accounted in Stats.WireBytes outside the GDSF byte budget.
func TestPatchWireEncodedOnce(t *testing.T) {
	tr := terrain(t, "highland")
	c, _ := newCache(t, tr, 0)
	for _, k := range wireKeys(c, 5, 8) {
		if _, _, err := c.PatchWireTraced(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries == 0 {
		t.Fatal("no resident tiles")
	}
	sum := 0
	for _, ts := range c.TileStats() {
		w, pst, err := c.PatchWireTraced(ts.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pst.Cold || pst.DA != 0 {
			t.Fatalf("resident tile %v: stats %+v, want a hit", ts.Key, pst)
		}
		p, _, err := c.Patch(ts.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, dm.EncodeTilePatch(p)) {
			t.Fatalf("tile %v: cached wire differs from EncodeTilePatch", ts.Key)
		}
		w2, _, _ := c.PatchWireTraced(ts.Key, nil)
		if &w2[0] != &w[0] {
			t.Fatalf("tile %v: re-encoded on a warm lookup", ts.Key)
		}
		if ts.Bytes != p.Bytes() {
			t.Fatalf("tile %v: charged %d bytes, patch estimate %d", ts.Key, ts.Bytes, p.Bytes())
		}
		sum += len(w)
	}
	if st2 := c.Stats(); st2.WireBytes != sum || st2.Bytes != st.Bytes {
		t.Fatalf("WireBytes %d (resident wire %d), Bytes %d -> %d", st2.WireBytes, sum, st.Bytes, st2.Bytes)
	}
}

// TestPatchWireDroppedWithEntry: under a budget that evicts, after
// Invalidate and after InvalidateAll, Stats.WireBytes is exactly the
// wire of the tiles still resident — 0 once nothing is.
func TestPatchWireDroppedWithEntry(t *testing.T) {
	tr := terrain(t, "highland")
	big, s := newCache(t, tr, 0)
	keys := wireKeys(big, 9, 20)
	for _, k := range keys {
		if _, _, err := big.Patch(k); err != nil {
			t.Fatal(err)
		}
	}
	budget := big.Stats().Bytes / 4
	c, err := tr.NewTileCache(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, _, err := c.PatchWireTraced(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget %d never evicted: %+v", budget, st)
	}
	if want := residentWire(t, c); st.WireBytes != want || want == 0 {
		t.Fatalf("after evictions: WireBytes %d, resident wire %d", st.WireBytes, want)
	}

	c.Invalidate(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5})
	if st, want := c.Stats(), residentWire(t, c); st.WireBytes != want {
		t.Fatalf("after Invalidate: WireBytes %d, resident wire %d", st.WireBytes, want)
	}
	c.InvalidateAll()
	if st := c.Stats(); st.WireBytes != 0 || st.Entries != 0 {
		t.Fatalf("after InvalidateAll: %+v, want no entries and no wire", st)
	}
}

// TestPatchWireKeepsEvictionOrder replays one access sequence through
// Patch on one cache and PatchWireTraced on another, both under an
// evicting budget and over stores built alike: residency, per-tile
// accounting and every counter but WireBytes must match, since the
// kept wire is not charged to the GDSF budget.
func TestPatchWireKeepsEvictionOrder(t *testing.T) {
	tr := terrain(t, "crater")
	probe, _ := newCache(t, tr, 0)
	keys := wireKeys(probe, 21, 25)
	for _, k := range keys {
		if _, _, err := probe.Patch(k); err != nil {
			t.Fatal(err)
		}
	}
	budget := probe.Stats().Bytes / 3
	viaPatch, _ := newCache(t, tr, budget)
	viaWire, _ := newCache(t, tr, budget)
	for _, k := range keys {
		if _, _, err := viaPatch.Patch(k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := viaWire.PatchWireTraced(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, b := viaPatch.Stats(), viaWire.Stats()
	if a.Evictions == 0 {
		t.Fatalf("budget %d never evicted: %+v", budget, a)
	}
	if b.WireBytes == 0 || a.WireBytes != 0 {
		t.Fatalf("WireBytes: Patch-only %d, PatchWireTraced %d", a.WireBytes, b.WireBytes)
	}
	b.WireBytes = 0
	if a != b {
		t.Fatalf("stats differ:\n  Patch           %+v\n  PatchWireTraced %+v", a, b)
	}
	ta, tb := viaPatch.TileStats(), viaWire.TileStats()
	if len(ta) != len(tb) {
		t.Fatalf("%d resident tiles vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("tile %d: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}
