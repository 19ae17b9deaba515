package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
	"dmesh/internal/workload"
)

// Flyovers under cache pressure: each client flies its own camera
// paths, flyPaths of them one after another, and requests every frame as a progressive stream (Router.Stream),
// decoding it batch by batch (stream.Decoder). Every shard's tile cache
// gets flyBudget bytes, below the paths' tile working set, so tiles are
// evicted and materialized again.
var (
	flyPaths   = 8
	flyFrames  = 20 // per path
	flyLODPct  = 0.8
	flyBudget  = 256 << 10 // bytes per shard
	flyView    = [2]float64{0.12, 0.1}
	flyOverlap = 0.75
	flyDrift   = 0.2
)

// frameOp is one frame: its final rung as a uniform op (answer, oracle,
// tile cover) plus the LOD rungs the stream walks.
type frameOp struct {
	uniformOp
	levels []float64
}

type flyover struct {
	*clusterEnv
	ops        [][]frameOp // per client
	workingSet []int       // resident bytes of the paths' tiles, per shard
}

func setupFlyover(cfg config) (runner, error) {
	ce, err := startCluster(cfg, cfg.budget)
	if err != nil {
		return nil, err
	}
	return &flyover{clusterEnv: ce}, nil
}

// flights is client c's frame sequence for a seed: flyPaths camera
// paths flown one after another, alternating flight axes, each with its
// own seeded lateral drift, all uniform planes at LOD e.
func flights(cfg config, c int, e float64) []geom.QueryPlane {
	var out []geom.QueryPlane
	for i := 0; i < flyPaths; i++ {
		out = append(out, workload.CameraPath{
			Frames: flyFrames, ViewWidth: flyView[0], ViewHeight: flyView[1],
			Overlap: flyOverlap, Axis: (c + i) % 2, EMin: e, Drift: flyDrift,
			Seed: (cfg.seed*7919+int64(c))*31 + int64(i),
		}.Planes()...)
	}
	return out
}

func (w *flyover) prepare() error {
	if err := w.prepareEnv(); err != nil {
		return err
	}
	e := w.t.LODPercentile(flyLODPct)
	ladder := w.grid.Ladder()
	seen := make(map[tilecache.Key]bool)
	w.workingSet = make([]int, w.cfg.shards)
	for c := 0; c < w.cfg.clients; c++ {
		var ops []frameOp
		for i, qp := range flights(w.cfg, c, e) {
			u, err := w.newUniformOp(qp.R, qp.EMin)
			if err != nil {
				return fmt.Errorf("oracle %d/%d: %w", c, i, err)
			}
			band, _ := w.grid.SnapE(qp.EMin)
			levels, err := stream.LevelsFor(ladder, band)
			if err != nil {
				return err
			}
			for b := band; b < len(ladder); b++ {
				keys := w.grid.Cover(qp.R, w.grid.LevelFor(qp.R), b)
				if err := w.sizeTiles(keys); err != nil {
					return err
				}
				for _, k := range keys {
					if !seen[k] {
						seen[k] = true
						w.workingSet[w.lc.Router.Ring().Primary(k.String())] += w.patchBytes[k]
					}
				}
			}
			ops = append(ops, frameOp{uniformOp: u, levels: levels})
		}
		w.ops = append(w.ops, ops)
	}
	// The first path of every client fills the caches to their steady
	// state.
	for _, ops := range w.ops {
		for i := range ops[:flyFrames] {
			if _, _, err := w.lc.Router.Stream(ops[i].r, ops[i].e, -1, io.Discard); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	w.dropOracleStore()
	return nil
}

func (w *flyover) pool(c int) int { return len(w.ops[c]) }

// streamed is the client side of one progressive frame.
type streamed struct {
	first, exact time.Duration // from the request
	mesh         *dm.Result
	dec          *stream.Decoder
	st           cluster.StreamStats
}

// streamFrame requests op through rt and decodes it as it arrives.
// body, when non-nil, receives a copy of the stream bytes; next, when
// non-nil, wraps each Decoder.Next call.
func streamFrame(rt *cluster.Router, tr *obs.Trace, op *frameOp, body io.Writer, next func(func() error) error) (streamed, error) {
	var s streamed
	start := time.Now()
	pr, pw := io.Pipe()
	type result struct {
		st  cluster.StreamStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, st, err := rt.StreamTraced(op.r, op.e, -1, pw, tr)
		pw.CloseWithError(err)
		done <- result{st, err}
	}()
	var src io.Reader = pr
	if body != nil {
		src = io.TeeReader(pr, body)
	}
	if next == nil {
		next = func(f func() error) error { return f() }
	}
	s.dec = stream.NewDecoder()
	err := s.dec.Attach(src)
	for err == nil {
		err = next(func() error {
			i, _, err := s.dec.Next()
			if err == nil && i == 0 {
				s.first = time.Since(start)
			}
			return err
		})
	}
	if errors.Is(err, io.EOF) {
		err = nil
		s.mesh = s.dec.Mesh()
		s.exact = time.Since(start)
	}
	pr.CloseWithError(io.ErrClosedPipe) // unblocks the writer if decoding stopped early
	r := <-done
	if err == nil {
		err = r.err
	}
	s.st = r.st
	if err != nil {
		return s, err
	}
	if err := checkFanout(s.st.Tiles, s.st.Attempts, s.st.Redirected); err != nil {
		return s, err
	}
	if got := s.dec.BytesRead(); got != int64(s.st.BytesSent) {
		return s, fmt.Errorf("decoder read %d bytes, router sent %d", got, s.st.BytesSent)
	}
	return s, nil
}

func (w *flyover) op(c *client, i int) outcome {
	op := &w.ops[c.idx][i]
	s, err := streamFrame(w.lc.Router, nil, op, nil, nil)
	if err != nil {
		return outcome{err: err}
	}
	if !c.m.equal(s.mesh, op.want) {
		return outcome{err: wrong("streamed answer")}
	}
	return outcome{lat: s.exact, first: s.first, bytes: s.st.BytesSent}
}

// tracedOp streams the frame through the client's instrumented router,
// then replays the codec and the final rung's tile path:
//
//	op
//	├── cluster.stream           Router.StreamTraced (producer goroutine)
//	│   └── serve.patch_http     one per tile per rung, concurrent
//	├── stream.next              the live Decoder.Next calls, which
//	│                            overlap cluster.stream and wait on it
//	├── stream.decode            Decoder.Next over the captured bytes
//	├── stream.encode            Encoder.EncodeNext per batch
//	└── tilecache.patch, dm.tilewire_encode, dm.tilewire_decode, dm.stitch
func (w *flyover) tracedOp(c *client, i int) outcome {
	op := &w.ops[c.idx][i]
	rec := c.rec
	root := span{id: rec.newID(), name: "op", start: rec.now()}
	root.opID = root.id
	defer func() { root.end = rec.now(); rec.add(root) }()

	sp := span{id: rec.newID(), parent: root.id, opID: root.id, name: "cluster.stream", start: rec.now()}
	w.probes[c.idx].begin(rec, root.id, sp.id)
	tr := obs.NewTrace(nil)
	var body bytes.Buffer
	s, err := streamFrame(w.traced[c.idx], tr, op, &body, func(f func() error) error {
		_, err := rec.timeCall(root.id, root.id, "stream.next", f)
		return err
	})
	sp.end = rec.now()
	rec.add(sp)
	fs := w.probes[c.idx].end()
	if err != nil {
		return outcome{err: err}
	}
	if !c.m.equal(s.mesh, op.want) {
		return outcome{err: wrong("streamed answer")}
	}
	if err := tr.CheckTotal(s.st.DA); err != nil || s.st.TraceDA != s.st.DA {
		return outcome{err: fmt.Errorf("cross-hop DA: header %d, shard traces %d: %v", s.st.DA, s.st.TraceDA, err)}
	}
	c.add("ops", 1)
	c.add("vertices", float64(len(s.mesh.Vertices)))
	c.add("cluster.tiles", float64(s.st.Tiles))
	c.add("cluster.attempts", float64(s.st.Attempts))
	c.add("cluster.redirects", float64(s.st.Redirected))
	c.add("stream.batches", float64(s.dec.NumBatches()))
	c.add("stream.first_bytes", float64(s.dec.BytesToFirstFrame()))
	addFetches(c, fs)

	if err := w.replayCodec(c, root.id, op, body.Bytes()); err != nil {
		return outcome{err: err}
	}
	if err := w.decompose(c, root.id, &op.uniformOp, byKey(fs)); err != nil {
		return outcome{err: err}
	}
	return outcome{lat: s.exact, first: s.first, bytes: s.st.BytesSent}
}

// replayCodec decodes the captured stream again, timing each batch
// alone (the live Next calls also wait for the network), then encodes
// the decoded rung meshes again, timing each batch, and checks that the
// re-encoding reproduces the stream byte for byte.
func (w *flyover) replayCodec(c *client, root int64, op *frameOp, body []byte) error {
	rec := c.rec
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(body)); err != nil {
		return err
	}
	var meshes []*dm.Result
	for !dec.Done() {
		if _, err := rec.timeCall(root, root, "stream.decode", func() error {
			_, _, err := dec.Next()
			return err
		}); err != nil {
			return err
		}
		meshes = append(meshes, dec.Mesh())
	}
	enc, err := stream.NewEncoder(op.r, op.levels)
	if err != nil {
		return err
	}
	again := append([]byte(nil), enc.Header()...)
	for _, m := range meshes {
		var frame []byte
		if _, err := rec.timeCall(root, root, "stream.encode", func() error {
			var err error
			frame, err = enc.EncodeNext(m)
			return err
		}); err != nil {
			return err
		}
		again = append(again, frame...)
	}
	if !bytes.Equal(again, body) {
		return fmt.Errorf("re-encoded stream (%d bytes) differs from the served one (%d bytes)", len(again), len(body))
	}
	return nil
}

func (w *flyover) checkPhase(d counters, ops int) error {
	if d.cache.Evictions == 0 {
		return fmt.Errorf("cache budget %d B/shard evicted nothing in %d frames (working set %v B/shard)",
			w.cfg.budget, ops, w.workingSet)
	}
	return nil
}

func (w *flyover) daPerOp() float64 { return poolDA(w.ops) }

func (w *flyover) record() map[string]any {
	return map[string]any{"shards": w.cfg.shards, "lod_pct": flyLODPct, "paths_per_client": flyPaths, "frames_per_path": flyFrames,
		"cache_bytes_per_shard": w.cfg.budget, "working_set_bytes_per_shard": w.workingSet}
}
