package main

import (
	"fmt"
	"time"

	"dmesh/internal/workload"
)

// Hot-spot serving: each client sends skewed ROIs (workload.HotSpot) to
// the cluster. The shards' caches keep their default budget, which
// holds the working set, and are warmed with an earlier epoch of the
// same hot spots. Where the hot spots lie is part of the workload, like
// the terrain (hotSpotLayout); the run's seed picks the epochs, that is
// the clients' query draws around them.
var (
	hotPerClient  = 300
	hotLODPct     = 0.8
	hotSpotLayout = int64(1)
)

type clusterHot struct {
	*clusterEnv
	ops [][]uniformOp // per client
}

func setupClusterHot(cfg config) (runner, error) {
	ce, err := startCluster(cfg, 0)
	if err != nil {
		return nil, err
	}
	return &clusterHot{clusterEnv: ce}, nil
}

// hotSpot is the seed's warm-up (warm) or measured query set.
func hotSpot(cfg config, warm bool) workload.HotSpot {
	epoch := 2*cfg.seed + 1
	if warm {
		epoch--
	}
	return workload.HotSpot{Clients: cfg.clients, PerClient: hotPerClient, Seed: hotSpotLayout, Epoch: epoch}
}

func (w *clusterHot) prepare() error {
	if err := w.prepareEnv(); err != nil {
		return err
	}
	e := w.t.LODPercentile(hotLODPct)
	for c, rois := range hotSpot(w.cfg, false).ROIs() {
		ops := make([]uniformOp, len(rois))
		for i, r := range rois {
			var err error
			if ops[i], err = w.newUniformOp(r, e); err != nil {
				return fmt.Errorf("oracle %d/%d: %w", c, i, err)
			}
		}
		w.ops = append(w.ops, ops)
	}
	for _, rois := range hotSpot(w.cfg, true).ROIs() {
		for _, r := range rois {
			if _, _, err := w.lc.Router.Query(r, e); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	w.dropOracleStore()
	return nil
}

func (w *clusterHot) pool(c int) int { return len(w.ops[c]) }

func (w *clusterHot) op(c *client, i int) outcome {
	op := &w.ops[c.idx][i]
	start := time.Now()
	res, st, err := w.lc.Router.Query(op.r, op.e)
	lat := time.Since(start)
	if err != nil {
		return outcome{err: err}
	}
	if err := checkFanout(st.Tiles, st.Attempts, st.Redirected); err != nil {
		return outcome{err: err}
	}
	if !c.m.equal(res, op.want) {
		return outcome{err: wrong("cluster answer")}
	}
	return outcome{lat: lat, first: lat, bytes: w.wireBytes(op)}
}

// tracedOp runs the query through the client's instrumented router and
// then replays its tile path layer by layer:
//
//	op
//	├── cluster.query            Router.QueryTraced
//	│   └── serve.patch_http     one per tile, concurrent
//	├── tilecache.patch, dm.tilewire_encode, dm.tilewire_decode (per tile)
//	└── dm.stitch
func (w *clusterHot) tracedOp(c *client, i int) outcome {
	op := &w.ops[c.idx][i]
	rec := c.rec
	root := span{id: rec.newID(), name: "op", start: rec.now()}
	root.opID = root.id
	defer func() { root.end = rec.now(); rec.add(root) }()

	start := time.Now()
	res, st, fs, err := tracedQuery(c, w.traced[c.idx], w.probes[c.idx], root.id, op)
	lat := time.Since(start)
	if err != nil {
		return outcome{err: err}
	}
	if err := checkFanout(st.Tiles, st.Attempts, st.Redirected); err != nil {
		return outcome{err: err}
	}
	if !c.m.equal(res, op.want) {
		return outcome{err: wrong("cluster answer")}
	}
	c.add("ops", 1)
	c.add("vertices", float64(len(res.Vertices)))
	c.add("cluster.tiles", float64(st.Tiles))
	c.add("cluster.attempts", float64(st.Attempts))
	c.add("cluster.redirects", float64(st.Redirected))
	addFetches(c, fs)
	if got, want := sumBytes(fs), w.wireBytes(op); got != want {
		return outcome{err: fmt.Errorf("%d tile-wire bytes received, %d expected", got, want)}
	}
	if err := w.decompose(c, root.id, op, byKey(fs)); err != nil {
		return outcome{err: err}
	}
	return outcome{lat: lat, first: lat, bytes: w.wireBytes(op)}
}

// wireBytes is the tile-wire body bytes the router receives for op,
// from the sizes the traced phase checks against the real bodies.
func (w *clusterHot) wireBytes(op *uniformOp) int {
	n := 0
	for _, k := range op.keys {
		n += w.tileBytes[k]
	}
	return n
}

func (w *clusterHot) checkPhase(counters, int) error { return nil }

func (w *clusterHot) daPerOp() float64 { return poolDA(w.ops) }

func (w *clusterHot) record() map[string]any {
	return map[string]any{"shards": w.cfg.shards, "lod_pct": hotLODPct, "ops_per_client": hotPerClient,
		"cache_bytes_per_shard": "default"}
}
