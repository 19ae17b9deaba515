package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dmesh"
	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/tilecache"
)

// clusterEnv is the serving side shared by the cluster workloads: an
// in-process cluster of shards behind loopback HTTP, the oracle store,
// and, for traced phases, one router per client whose HTTP client
// records every shard request as a span.
type clusterEnv struct {
	cfg    config
	t      *dmesh.Terrain
	lc     *cluster.LocalCluster
	ref    *dmesh.DMStore // oracle store: no timed path touches it
	grid   *tilecache.Grid
	traced []*cluster.Router
	probes []*httpProbe

	// tileBytes is each tile's wire-encoded size, from the oracle store.
	tileBytes map[tilecache.Key]int
	// patchBytes is each tile's resident size as the cache accounts it.
	patchBytes map[tilecache.Key]int
}

func startCluster(cfg config, cacheBytes int) (*clusterEnv, error) {
	t, err := buildTerrain(cfg)
	if err != nil {
		return nil, err
	}
	lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: t, Shards: cfg.shards, CacheMaxBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	return &clusterEnv{cfg: cfg, t: t, lc: lc, grid: lc.Router.Grid()}, nil
}

// prepareEnv builds the oracle store and the traced routers.
func (ce *clusterEnv) prepareEnv() error {
	ref, err := ce.t.NewDMStore()
	if err != nil {
		return err
	}
	ce.ref = ref
	ce.tileBytes = make(map[tilecache.Key]int)
	ce.patchBytes = make(map[tilecache.Key]int)
	urls := make([]string, len(ce.lc.HTTP))
	for i, ts := range ce.lc.HTTP {
		urls[i] = ts.URL
	}
	for i := 0; i < ce.cfg.clients; i++ {
		probe := newHTTPProbe()
		// The shared router's ring identities, so the traced routers
		// place every tile exactly as it does.
		rt, err := cluster.NewRouter(cluster.Config{
			Shards: urls, IDs: ce.lc.Router.Ring().IDs(), Grid: ce.grid,
			Client: &http.Client{Transport: probe, Timeout: 30 * time.Second},
		})
		if err != nil {
			return err
		}
		ce.traced = append(ce.traced, rt)
		ce.probes = append(ce.probes, probe)
	}
	return nil
}

// dropOracleStore releases the oracle store once every oracle and tile
// size is known, so the timed phases do not carry it as live heap.
func (ce *clusterEnv) dropOracleStore() { ce.ref = nil }

func (ce *clusterEnv) clients() int { return ce.cfg.clients }

func (ce *clusterEnv) counters() counters {
	var c counters
	for _, s := range ce.lc.Servers {
		st := s.Cache().Stats()
		c.cache.TileLookups += st.TileLookups
		c.cache.Hits += st.Hits
		c.cache.Misses += st.Misses
		c.cache.DedupedMisses += st.DedupedMisses
		c.cache.Evictions += st.Evictions
		c.cache.MaterializeDA += st.MaterializeDA
		bd := s.Store().Breakdown()
		c.pager.Data += bd.Data
		c.pager.Overflow += bd.Overflow
		c.pager.Index += bd.Index
		c.pager.IDIndex += bd.IDIndex
	}
	return c
}

func (ce *clusterEnv) storeBytes() (int64, error) {
	var total int64
	for _, s := range ce.lc.Servers {
		b, err := storePages(s.Store())
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

func (ce *clusterEnv) close() {
	for _, p := range ce.probes {
		p.base.CloseIdleConnections()
	}
	ce.lc.Close()
}

// uniformOp is one cluster query Q(r, e) with its tile cover at the
// snapped LOD and its oracle.
type uniformOp struct {
	r       geom.Rect
	e       float64
	snapped float64
	keys    []tilecache.Key
	oracle
}

func (ce *clusterEnv) newUniformOp(r geom.Rect, e float64) (uniformOp, error) {
	band, snapped := ce.grid.SnapE(e)
	op := uniformOp{r: r, e: e, snapped: snapped, keys: ce.grid.Cover(r, ce.grid.LevelFor(r), band)}
	vi := func() (*dm.Result, error) { return ce.ref.ViewpointIndependent(r, snapped) }
	var err error
	if op.oracle, err = coldOracle(ce.ref, vi); err != nil {
		return op, err
	}
	return op, ce.sizeTiles(op.keys)
}

// sizeTiles records the wire and resident sizes of keys not yet sized,
// materializing them on the oracle store.
func (ce *clusterEnv) sizeTiles(keys []tilecache.Key) error {
	ladder := ce.grid.Ladder()
	for _, k := range keys {
		if _, ok := ce.tileBytes[k]; ok {
			continue
		}
		tp, err := ce.ref.MaterializeTile(ce.grid.RectFor(k), ladder[k.Band])
		if err != nil {
			return fmt.Errorf("size tile %v: %w", k, err)
		}
		ce.tileBytes[k] = len(dm.EncodeTilePatch(tp))
		ce.patchBytes[k] = tp.Bytes()
	}
	return nil
}

// checkFanout asserts the router's per-tile accounting invariant.
func checkFanout(tiles, attempts, redirected int) error {
	if attempts != tiles+redirected {
		return fmt.Errorf("fan-out accounting: %d attempts, %d tiles + %d redirects", attempts, tiles, redirected)
	}
	return nil
}

// decompose replays one op's final tile fetches layer by layer, each
// call a span under root, and checks the stitched result:
//
//	tilecache.patch     the owning shard's Cache.Patch
//	dm.tilewire_encode  EncodeTilePatch, as the shard's /patch does
//	dm.tilewire_decode  DecodeTilePatch, as the router does
//	dm.stitch           StitchTiles over the decoded patches
//
// fetched holds the op's HTTP round trips by tile key; each matched
// tile yields an HTTP transfer time: round trip minus patch lookup and
// encode.
func (ce *clusterEnv) decompose(c *client, root int64, op *uniformOp, fetched map[tilecache.Key]fetch) error {
	rec := c.rec
	tiles := make([]*dm.TilePatch, 0, len(op.keys))
	for _, k := range op.keys {
		owner := ce.lc.Router.Ring().Primary(k.String())
		var tp *dm.TilePatch
		dPatch, err := rec.timeCall(root, root, "tilecache.patch", func() error {
			var err error
			tp, _, err = ce.lc.Servers[owner].Cache().Patch(k)
			return err
		})
		if err != nil {
			return err
		}
		var body []byte
		dEnc, _ := rec.timeCall(root, root, "dm.tilewire_encode", func() error {
			body = dm.EncodeTilePatch(tp)
			return nil
		})
		if _, err := rec.timeCall(root, root, "dm.tilewire_decode", func() error {
			tp, err = dm.DecodeTilePatch(body)
			return err
		}); err != nil {
			return err
		}
		tiles = append(tiles, tp)
		if f, ok := fetched[k]; ok {
			if f.bytes != len(body) {
				return fmt.Errorf("tile %v: %d bytes on the wire, %d re-encoded", k, f.bytes, len(body))
			}
			c.sample("serve.http_transfer_us", float64(f.rtt-dPatch-dEnc)/1e3)
		}
	}
	var res *dm.Result
	if _, err := rec.timeCall(root, root, "dm.stitch", func() error {
		var err error
		res, err = dm.StitchTiles(op.r, op.snapped, tiles)
		return err
	}); err != nil {
		return err
	}
	if !c.m.equal(res, op.want) {
		return wrong("re-stitched answer")
	}
	return nil
}

// addFetches adds an op's HTTP round trips to the client's counts.
func addFetches(c *client, fs []fetch) {
	for _, f := range fs {
		c.add("http.requests", 1)
		c.add("http.bytes", float64(f.bytes))
	}
}

func sumBytes(fs []fetch) int {
	n := 0
	for _, f := range fs {
		n += f.bytes
	}
	return n
}

// fetch is one shard request a traced router issued.
type fetch struct {
	key   tilecache.Key
	rtt   time.Duration // request sent to body closed
	bytes int
}

// httpProbe is the instrumented transport of one client's traced
// router: each request becomes a serve.patch_http span under the
// current parent, from sending the request to the router closing the
// body. One client issues one op at a time, so every request between
// begin and end belongs to that op; the router's fan-out goroutines
// record concurrently.
type httpProbe struct {
	base *http.Transport

	mu      sync.Mutex
	rec     *recorder
	op, par int64
	fetches []fetch
}

func newHTTPProbe() *httpProbe {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConns = 256
	base.MaxIdleConnsPerHost = 64
	return &httpProbe{base: base}
}

// begin attributes subsequent requests to span parent of op.
func (p *httpProbe) begin(rec *recorder, op, parent int64) {
	p.mu.Lock()
	p.rec, p.op, p.par, p.fetches = rec, op, parent, nil
	p.mu.Unlock()
}

// end returns the requests recorded since begin.
func (p *httpProbe) end() []fetch {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.fetches
	p.fetches = nil
	return fs
}

func (p *httpProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	rec, op, par := p.rec, p.op, p.par
	p.mu.Unlock()
	if rec == nil {
		return p.base.RoundTrip(req)
	}
	s := span{id: rec.newID(), parent: par, opID: op, name: "serve.patch_http", start: rec.now()}
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		s.end = rec.now()
		rec.add(s)
		return nil, err
	}
	q := req.URL.Query()
	atoi := func(k string) int { v, _ := strconv.Atoi(q.Get(k)); return v }
	key := tilecache.Key{Level: atoi("level"), IX: atoi("ix"), IY: atoi("iy"), Band: atoi("band")}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int) {
		s.end = rec.now()
		rtt := rec.add(s)
		p.mu.Lock()
		p.fetches = append(p.fetches, fetch{key: key, rtt: rtt, bytes: n})
		p.mu.Unlock()
	}}
	return resp, nil
}

// timedBody counts a response body and reports when it is closed.
type timedBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// tracedQuery runs Router.QueryTraced as a cluster.query span under
// root, checking the program's cross-hop DA accounting.
func tracedQuery(c *client, rt *cluster.Router, probe *httpProbe, root int64, op *uniformOp) (*dm.Result, cluster.QueryStats, []fetch, error) {
	rec := c.rec
	id := rec.newID()
	probe.begin(rec, root, id)
	s := span{id: id, parent: root, opID: root, name: "cluster.query", start: rec.now()}
	tr := obs.NewTrace(nil)
	res, st, err := rt.QueryTraced(op.r, op.e, tr)
	s.end = rec.now()
	rec.add(s)
	fs := probe.end()
	if err != nil {
		return nil, st, fs, err
	}
	if err := tr.CheckTotal(st.DA); err != nil || st.TraceDA != st.DA {
		return nil, st, fs, fmt.Errorf("cross-hop DA: header %d, shard traces %d: %v", st.DA, st.TraceDA, err)
	}
	return res, st, fs, nil
}

func byKey(fs []fetch) map[tilecache.Key]fetch {
	m := make(map[tilecache.Key]fetch, len(fs))
	for _, f := range fs {
		m[f.key] = f
	}
	return m
}
