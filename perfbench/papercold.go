package main

import (
	"fmt"
	"math/rand"
	"time"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// The paper's query mix: uniform-ROI viewpoint-independent queries at
// several LOD percentiles, and viewpoint-dependent planes answered
// single-base and multi-base (Section 6).
var (
	coldLODPcts   = []float64{0.5, 0.7, 0.9}
	coldAreaFrac  = 0.04
	coldLocations = 120
	coldPlaneEMin = 0.5 // LOD percentile of a plane's near edge
	coldAngleFrac = 0.5 // plane angle as a fraction of θmax
)

type queryKind int

const (
	kindVI queryKind = iota
	kindSB
	kindMB
)

var kindSpan = [...]string{kindVI: "dm.vi", kindSB: "dm.sb", kindMB: "dm.mb"}

type coldOp struct {
	kind queryKind
	r    geom.Rect // kindVI
	e    float64   // kindVI
	qp   geom.QueryPlane
	oracle
}

// paperCold runs the paper's cold query mix directly on one DMStore
// from one client: every op drops the buffer pools and zeroes the
// counters first (dmesh.MeasuredRun).
type paperCold struct {
	cfg   config
	t     *dmesh.Terrain
	store *dmesh.DMStore
	model *dmesh.CostModel
	ops   []coldOp
}

func setupPaperCold(cfg config) (runner, error) {
	t, err := buildTerrain(cfg)
	if err != nil {
		return nil, err
	}
	store, err := t.NewDMStore()
	if err != nil {
		return nil, err
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		return nil, err
	}
	return &paperCold{cfg: cfg, t: t, store: store, model: model}, nil
}

// queryer is the query API shared by a DMStore and a DMSession.
type queryer interface {
	ViewpointIndependent(r geom.Rect, e float64) (*dm.Result, error)
	SingleBase(qp geom.QueryPlane) (*dm.Result, error)
	MultiBase(qp geom.QueryPlane, model *dmesh.CostModel, maxStrips int) (*dm.Result, error)
}

func (o *coldOp) run(q queryer, model *dmesh.CostModel) (*dm.Result, error) {
	switch o.kind {
	case kindSB:
		return q.SingleBase(o.qp)
	case kindMB:
		return q.MultiBase(o.qp, model, 0)
	}
	return q.ViewpointIndependent(o.r, o.e)
}

// coldOps generates the mix for a seed, in a seeded shuffled order.
func coldOps(t *dmesh.Terrain, seed int64) []coldOp {
	var ops []coldOp
	for i, p := range coldLODPcts {
		rois := workload.ROIs(workload.Config{Locations: coldLocations, Seed: seed*101 + int64(i)}, coldAreaFrac)
		for _, r := range rois {
			ops = append(ops, coldOp{kind: kindVI, r: r, e: t.LODPercentile(p)})
		}
	}
	rois := workload.ROIs(workload.Config{Locations: coldLocations, Seed: seed*101 + 99}, coldAreaFrac)
	for _, r := range rois {
		qp := workload.PlaneFor(r, t.LODPercentile(coldPlaneEMin), t.MaxLOD(), coldAngleFrac)
		ops = append(ops, coldOp{kind: kindSB, qp: qp}, coldOp{kind: kindMB, qp: qp})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (p *paperCold) prepare() error {
	// The oracle store is a second, independently built store: the
	// "single node" every answer and DA count is checked against.
	ref, err := p.t.NewDMStore()
	if err != nil {
		return err
	}
	refModel, err := dmesh.NewCostModel(ref)
	if err != nil {
		return err
	}
	p.ops = coldOps(p.t, p.cfg.seed)
	for i := range p.ops {
		op := &p.ops[i]
		if op.oracle, err = coldOracle(ref, func() (*dm.Result, error) { return op.run(ref, refModel) }); err != nil {
			return fmt.Errorf("oracle %d: %w", i, err)
		}
	}
	return nil
}

func (p *paperCold) clients() int { return 1 }

func (p *paperCold) pool(int) int { return len(p.ops) }

func (p *paperCold) check(c *client, op *coldOp, res *dm.Result, da uint64) error {
	if da != op.da {
		return fmt.Errorf("%s: %d disk accesses, oracle %d", kindSpan[op.kind], da, op.da)
	}
	if !c.m.equal(res, op.want) {
		return wrong(kindSpan[op.kind] + " answer")
	}
	return nil
}

func (p *paperCold) op(c *client, i int) outcome {
	op := &p.ops[i]
	var res *dm.Result
	var lat time.Duration
	da, err := dmesh.MeasuredRun(p.store, func() error {
		start := time.Now()
		var err error
		res, err = op.run(p.store, p.model)
		lat = time.Since(start)
		return err
	})
	if err != nil {
		return outcome{err: err}
	}
	if err := p.check(c, op, res, da); err != nil {
		return outcome{err: err}
	}
	return outcome{lat: lat, first: lat, bytes: len(op.want)}
}

// tracedOp runs the op on a DMSession with the program's phase trace
// installed, then probes the R*-tree and the cost model directly:
//
//	op
//	├── dm.vi | dm.sb | dm.mb   the cold query (inside MeasuredRun)
//	├── costmodel.plan          ExplainPlane (planes only)
//	└── rtree.search            one cold Search per query cube
func (p *paperCold) tracedOp(c *client, i int) outcome {
	op := &p.ops[i]
	rec := c.rec
	root := span{id: rec.newID(), name: "op", start: rec.now()}
	root.opID = root.id
	defer func() { root.end = rec.now(); rec.add(root) }()

	sess := p.store.NewSession()
	tr := sess.NewTrace()
	var res *dm.Result
	var lat time.Duration
	da, err := dmesh.MeasuredRun(sess, func() error {
		var err error
		lat, err = rec.timeCall(root.id, root.id, kindSpan[op.kind], func() error {
			var err error
			res, err = op.run(sess, p.model)
			return err
		})
		return err
	})
	if err != nil {
		return outcome{err: err}
	}
	if err := p.check(c, op, res, da); err != nil {
		return outcome{err: err}
	}
	// The program's trace is read for its per-phase DA only: the phases
	// must account for every disk access the session counted.
	if err := tr.CheckTotal(da); err != nil {
		return outcome{err: fmt.Errorf("phase DA attribution: %w", err)}
	}
	bd := sess.Breakdown()
	c.add("pager.data", float64(bd.Data))
	c.add("pager.overflow", float64(bd.Overflow))
	c.add("pager.index", float64(bd.Index))
	c.add("pager.idindex", float64(bd.IDIndex))
	c.add("vertices", float64(len(res.Vertices)))
	c.add("ops", 1)

	boxes := []geom.Box{geom.BoxFromRect(op.r, min(op.e, p.store.MaxE()), min(op.e, p.store.MaxE()))}
	if op.kind != kindVI {
		boxes = []geom.Box{geom.BoxFromRect(op.qp.R, op.qp.EMin, op.qp.EMax)}
		var plan *dm.Plan
		if _, err := rec.timeCall(root.id, root.id, "costmodel.plan", func() error {
			var err error
			plan, err = p.store.ExplainPlane(op.qp, p.model, 0)
			return err
		}); err != nil {
			return outcome{err: err}
		}
		c.add("costmodel.strips", float64(len(plan.Strips)))
		c.add("costmodel.plans", 1)
		if op.kind == kindMB {
			boxes = boxes[:0]
			for _, st := range plan.Strips {
				boxes = append(boxes, st.Strip.Box())
			}
		}
	}
	if err := p.store.DropCaches(); err != nil {
		return outcome{err: err}
	}
	for _, b := range boxes {
		refs := 0
		if _, err := rec.timeCall(root.id, root.id, "rtree.search", func() error {
			return p.store.RTree().Search(b, func(int64, geom.Box) bool { refs++; return true })
		}); err != nil {
			return outcome{err: err}
		}
		c.add("rtree.refs", float64(refs))
		c.add("rtree.searches", 1)
	}
	return outcome{lat: lat, first: lat, bytes: len(op.want)}
}

func (p *paperCold) counters() counters { return counters{} }

func (p *paperCold) checkPhase(counters, int) error { return nil }

func (p *paperCold) daPerOp() float64 { return poolDA([][]coldOp{p.ops}) }

func (p *paperCold) storeBytes() (int64, error) { return storePages(p.store) }

func (p *paperCold) record() map[string]any {
	return map[string]any{"ops_in_pool": len(p.ops), "stores": 1}
}

func (p *paperCold) close() {}
