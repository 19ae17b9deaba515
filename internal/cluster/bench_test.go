package cluster_test

import (
	"testing"

	"dmesh/internal/cluster"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// BenchmarkRouterQueryHot repeats one hot ROI against a warm in-process
// cluster: the steady state where every shard serves its kept wire and
// the router stitches memoized patches. decodes/op is the router's
// patch decodes per query, 0 once the memo is warm.
func BenchmarkRouterQueryHot(b *testing.B) {
	tr := terrain(b, "highland")
	reg := obs.NewRegistry()
	lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: tr, Shards: 3, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(lc.Close)
	r := geom.Rect{MinX: 0.2, MinY: 0.25, MaxX: 0.6, MaxY: 0.6}
	e := tr.LODPercentile(0.8)
	if _, _, err := lc.Router.Query(r, e); err != nil { // warm shards and memo
		b.Fatal(err)
	}
	decodes := reg.Counter("cluster_router_patch_decodes_total", "")
	before := decodes.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lc.Router.Query(r, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(decodes.Value()-before)/float64(b.N), "decodes/op")
}
