package cluster_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/tilecache"
)

// gauge reads one metric's value from a registry's Prometheus page.
func gauge(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Metrics[name]
	if m == nil {
		t.Fatalf("registry lacks %s", name)
	}
	return m.Value
}

// TestRouterMemoDecodesOnce: repeating a hot query decodes each
// distinct tile exactly once; every later fetch is a memo hit, and the
// answer stays the single-node answer. Then N goroutines stitch the
// same memoized patches at once (shared, read-only): every answer's
// canonical bytes are identical and nothing is decoded again.
func TestRouterMemoDecodesOnce(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)
	reg := obs.NewRegistry()
	lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: tr, Shards: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	decodes := reg.Counter("cluster_router_patch_decodes_total", "")
	hits := reg.Counter("cluster_router_patch_memo_hits_total", "")

	r := geom.Rect{MinX: 0.2, MinY: 0.25, MaxX: 0.6, MaxY: 0.6} // a 2x2 cover
	e := tr.LODPercentile(0.8)
	direct, _, err := single.Query(r, e)
	if err != nil {
		t.Fatal(err)
	}
	want := dm.CanonicalMesh(direct)
	tiles := 0
	for i := 0; i < 4; i++ {
		res, st, err := lc.Router.Query(r, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dm.CanonicalMesh(res), want) {
			t.Fatalf("repeat %d differs from single node", i)
		}
		tiles = st.Tiles
		if d, h := decodes.Value(), hits.Value(); d != uint64(tiles) || h != uint64(i*tiles) {
			t.Fatalf("repeat %d: %d decodes, %d memo hits; want %d, %d", i, d, h, tiles, i*tiles)
		}
	}
	if tiles < 2 {
		t.Fatalf("hot query covers %d tiles; too few to exercise the memo", tiles)
	}

	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, _, err := lc.Router.Query(r, e)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(dm.CanonicalMesh(res), want) {
					errs <- "concurrent answer differs from single node"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if d := decodes.Value(); d != uint64(tiles) {
		t.Fatalf("%d decodes after concurrent repeats, want %d", d, tiles)
	}
}

// TestRouterMemoWithinBudget runs random queries through a cluster
// whose budget holds only a few tiles: the memo gauge never exceeds the
// budget, evicted tiles are decoded again, and every answer is still
// the single-node answer.
func TestRouterMemoWithinBudget(t *testing.T) {
	tr := terrain(t, "crater")
	single := singleNode(t, tr)
	e := tr.LODPercentile(0.9)
	rois := randRects(rand.New(rand.NewSource(23)), 30)
	for _, r := range rois {
		if _, _, err := single.Query(r, e); err != nil {
			t.Fatal(err)
		}
	}
	budget := 0
	for _, ts := range single.TileStats() {
		budget += ts.Bytes
	}
	budget = budget / len(single.TileStats()) * 3
	reg := obs.NewRegistry()
	lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: tr, Shards: 3, Registry: reg, CacheMaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	g := lc.Router.Grid()
	band, _ := g.SnapE(e)
	distinct := make(map[tilecache.Key]bool)
	fetched := 0
	var maxHeld int64
	for i, r := range rois {
		res, st, err := lc.Router.Query(r, e)
		if err != nil {
			t.Fatal(err)
		}
		fetched += st.Tiles
		for _, k := range g.Cover(r, g.LevelFor(r), band) {
			distinct[k] = true
		}
		direct, _, err := single.Query(r, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dm.CanonicalMesh(res), dm.CanonicalMesh(direct)) {
			t.Fatalf("query %d differs from single node", i)
		}
		held := gauge(t, reg, "cluster_router_patch_memo_bytes")
		if held > int64(budget) {
			t.Fatalf("query %d: memo holds %d bytes, budget %d", i, held, budget)
		}
		maxHeld = max(maxHeld, held)
	}
	if maxHeld == 0 {
		t.Fatalf("budget %d never held a tile", budget)
	}
	decodes := reg.Counter("cluster_router_patch_decodes_total", "").Value()
	hits := reg.Counter("cluster_router_patch_memo_hits_total", "").Value()
	if decodes+hits != uint64(fetched) || hits == 0 {
		t.Fatalf("%d decodes + %d hits for %d fetched tiles", decodes, hits, fetched)
	}
	if decodes <= uint64(len(distinct)) {
		t.Fatalf("%d decodes for %d distinct tiles: the budget never evicted", decodes, len(distinct))
	}
}
