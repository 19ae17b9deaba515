package main

import (
	"fmt"
	"time"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/storage/pager"
	"dmesh/internal/tilecache"
)

// terrainSeed fixes the dataset. The workload seed varies the inputs
// (ROIs, hot spots, camera paths), never the terrain, as the paper
// measures one dataset under many query placements.
const terrainSeed = 1

// config is what one run needs to build and drive a workload.
type config struct {
	seed    int64
	size    int // heightfield side; size*size points
	shards  int // cluster workloads
	clients int // cluster workloads; paper-cold has one
	budget  int // flyover-evict: per-shard tile-cache bytes
}

// outcome is one op as the client saw it. err marks a failed or wrong
// answer.
type outcome struct {
	lat, first time.Duration // request to exact answer; to first usable mesh
	bytes      int           // bytes delivered to the client
	err        error
}

// counters are the program-side totals a workload can read between
// phases (summed over shards); the per-layer counts are their deltas.
type counters struct {
	cache tilecache.Stats
	pager dm.AccessBreakdown
}

func (a counters) sub(b counters) counters {
	a.cache.TileLookups -= b.cache.TileLookups
	a.cache.Hits -= b.cache.Hits
	a.cache.Misses -= b.cache.Misses
	a.cache.DedupedMisses -= b.cache.DedupedMisses
	a.cache.Evictions -= b.cache.Evictions
	a.cache.MaterializeDA -= b.cache.MaterializeDA
	a.pager.Data -= b.pager.Data
	a.pager.Overflow -= b.pager.Overflow
	a.pager.Index -= b.pager.Index
	a.pager.IDIndex -= b.pager.IDIndex
	return a
}

// runner is one named closed-loop benchmark workload. setup (timed
// as setup_s) has built it; prepare builds the inputs, oracles and warm
// caches outside every timed region.
type runner interface {
	prepare() error
	// clients is the number of closed-loop clients.
	clients() int
	// pool is the number of distinct ops in client c's stream, which the
	// client cycles through.
	pool(c int) int
	// op runs client c's i-th op untraced; tracedOp runs it with spans
	// recorded on c.rec and per-layer counts added to c.sums.
	op(c *client, i int) outcome
	tracedOp(c *client, i int) outcome
	counters() counters
	// checkPhase validates a measured phase's counter deltas.
	checkPhase(d counters, ops int) error
	// daPerOp is the mean over the op pool of each op's exact cold
	// single-node disk accesses (the paper's metric).
	daPerOp() float64
	// storeBytes is the page footprint of the stores the workload serves
	// from.
	storeBytes() (int64, error)
	// record describes the workload's fixed parameters for the run log.
	record() map[string]any
	close()
}

// workloads maps each name in BENCHMARK.json to its set-up function.
var workloads = map[string]func(config) (runner, error){
	"paper-cold":    setupPaperCold,
	"cluster-hot":   setupClusterHot,
	"flyover-evict": setupFlyover,
}

func buildTerrain(cfg config) (*dmesh.Terrain, error) {
	t, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: cfg.size, Seed: terrainSeed})
	if err != nil {
		return nil, fmt.Errorf("build terrain: %w", err)
	}
	return t, nil
}

// storePages is a store's footprint from its public page counts: heap
// records, overflow records and R*-tree nodes. The ID-index B+-tree
// publishes no page count and is left out.
func storePages(s *dmesh.DMStore) (int64, error) {
	rt, err := s.RTree().NumNodes()
	if err != nil {
		return 0, fmt.Errorf("count R*-tree pages: %w", err)
	}
	return (s.DataPages() + s.OverflowPages() + int64(rt)) * pager.PageSize, nil
}

// oracle is the single-node direct answer an op must reproduce, and
// its cold disk accesses.
type oracle struct {
	want []byte // dm.CanonicalMesh of the answer
	da   uint64
}

func (o oracle) coldDA() uint64 { return o.da }

// poolDA is the mean oracle DA over every client's op pool.
func poolDA[T interface{ coldDA() uint64 }](pools [][]T) float64 {
	var sum, n float64
	for _, ops := range pools {
		for _, op := range ops {
			sum += float64(op.coldDA())
			n++
		}
	}
	return ratio(sum, n)
}

// coldOracle answers q cold on s (a store no timed path touches).
func coldOracle(s *dmesh.DMStore, q func() (*dm.Result, error)) (oracle, error) {
	var res *dm.Result
	da, err := dmesh.MeasuredRun(s, func() error {
		var err error
		res, err = q()
		return err
	})
	if err != nil {
		return oracle{}, err
	}
	return oracle{want: dm.CanonicalMesh(res), da: da}, nil
}

// wrong is the error of an answer that differs from its oracle.
func wrong(what string) error { return fmt.Errorf("%s differs from the single-node oracle", what) }
