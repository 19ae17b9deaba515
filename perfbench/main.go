// Command perfbench is the repository's benchmark: it builds the
// terrain, runs one named closed-loop workload for a fixed time, checks
// every answer against a single-node oracle, and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run gives the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The fixed shape of every run: grid side, cluster shard count, and how
// many set-ups setup_s takes the median of.
const (
	gridSize      = 129
	clusterShards = 3
	setupRuns     = 3
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// its order; a test keeps the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"first_frame_p50_ms", "ms"},
	{"first_frame_p99_ms", "ms"},
	{"da_per_op", "count"},
	{"stream_bytes_per_op", "B"},
	{"alloc_kib_per_op", "KiB"},
	{"peak_heap_mib", "MiB"},
	{"store_mib", "MiB"},
}

var perLayer = []metricDef{
	{"pager.reads_per_op", "count"},
	{"pager.data_reads_per_op", "count"},
	{"pager.overflow_reads_per_op", "count"},
	{"pager.index_reads_per_op", "count"},
	{"pager.idindex_reads_per_op", "count"},
	{"rtree.search_us.p50", "us"},
	{"rtree.refs_per_search", "count"},
	{"dm.vi_us.p50", "us"},
	{"dm.sb_us.p50", "us"},
	{"dm.mb_us.p50", "us"},
	{"dm.vertices_per_op", "count"},
	{"costmodel.plan_us.p50", "us"},
	{"costmodel.strips_per_plan", "count"},
	{"tilecache.hit_ratio", "ratio"},
	{"tilecache.misses_per_op", "count"},
	{"tilecache.evictions_per_op", "count"},
	{"tilecache.dedup_per_op", "count"},
	{"tilecache.materialize_da_per_op", "count"},
	{"tilecache.patch_us.p50", "us"},
	{"stream.encode_us_per_batch", "us"},
	{"stream.decode_us_per_batch", "us"},
	{"stream.first_frame_bytes", "B"},
	{"stream.batches_per_op", "count"},
	{"dm.tilewire_encode_us.p50", "us"},
	{"dm.tilewire_decode_us.p50", "us"},
	{"dm.tilewire_bytes_per_tile", "B"},
	{"dm.stitch_us.p50", "us"},
	{"serve.patch_http_us.p50", "us"},
	{"serve.http_transfer_us.p50", "us"},
	{"cluster.query_us.p50", "us"},
	{"cluster.tiles_per_op", "count"},
	{"cluster.attempts_per_op", "count"},
	{"cluster.redirects_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-cold, cluster-hot or flyover-evict")
	seed := flag.Int64("seed", 1, "workload seed: ROIs, hot spots and camera paths derive from it")
	seconds := flag.Int("seconds", 20, "measured seconds (a traced run splits them untraced/traced)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := flag.String("spans-dir", ".", "directory for the traced run's span dump")
	flag.Parse()

	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	cfg := config{seed: *seed, size: gridSize, shards: clusterShards, clients: runtime.NumCPU(), budget: flyBudget}
	// setup_s is the median of setupRuns set-ups; a traced run does not
	// report it and sets up once.
	setups := setupRuns
	if *trace == 1 {
		setups = 1
	}

	var w runner
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 2
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: prepare: %v\n", err)
		return 2
	}

	rec := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"grid_size": cfg.size, "terrain": fmt.Sprintf("highland seed %d", terrainSeed),
		"clients": w.clients(), "setup_runs_s": setupTimes,
	}
	for k, v := range w.record() {
		rec[k] = v
	}

	d := time.Duration(*seconds) * time.Second
	var res result
	var errs []error
	if *trace == 0 {
		p := measure(w, d, false, nil)
		res, errs = endToEndResult(w, p, median(setupTimes))
		rec["ops"], rec["failed_frac"] = p.ops, ratio(float64(p.failed), float64(p.ops))
	} else {
		u := measure(w, d/2, false, nil)
		r := newRecorder()
		t := measure(w, d/2, true, r)
		path := ""
		if *spansDir != "" {
			path = filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", *name, *seed))
			rec["spans"] = path
		}
		sums, err := r.finish(path)
		if err != nil {
			errs = append(errs, err)
		}
		res, errs = perLayerResult(w, u, t, sums, errs)
		rec["ops"], rec["traced_ops"] = u.ops, t.ops
		rec["failed_frac"] = ratio(float64(u.failed+t.failed), float64(u.ops+t.ops))
		printSpanSummary(sums)
	}
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	res.Correct = len(errs) == 0 && res.Failed == 0
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode record: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		return 1
	}
	return 0
}

// phaseErrs are the errors that make a measured phase invalid.
func phaseErrs(w runner, p *phase) []error {
	var errs []error
	if p.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d ops failed; first: %v", p.failed, p.ops, p.firstErr))
	}
	if err := w.checkPhase(p.delta, p.ops); err != nil {
		errs = append(errs, err)
	}
	return errs
}

func endToEndResult(w runner, p *phase, setupS float64) (result, []error) {
	errs := phaseErrs(w, p)
	if !p.covered(w) {
		errs = append(errs, fmt.Errorf("run too short: not every op of the pool ran (%d ops)", p.ops))
	}
	res := result{Attempted: p.ops, Failed: p.failed, Metrics: make(map[string]metricValue)}
	q := func(xs []float64, q float64) float64 {
		v, err := quantile(xs, q)
		if err != nil {
			errs = append(errs, err)
		}
		return v
	}
	done := float64(p.ops - p.failed)
	storeB, err := w.storeBytes()
	if err != nil {
		errs = append(errs, err)
	}
	v := map[string]float64{
		"setup_s":             setupS,
		"op_p50_ms":           q(p.lat, 0.5),
		"op_p99_ms":           q(p.lat, 0.99),
		"throughput_ops_s":    p.throughput(),
		"first_frame_p50_ms":  q(p.first, 0.5),
		"first_frame_p99_ms":  q(p.first, 0.99),
		"da_per_op":           w.daPerOp(),
		"stream_bytes_per_op": ratio(p.bytes, done),
		"alloc_kib_per_op":    ratio(float64(p.allocBytes)/1024, done),
		"peak_heap_mib":       float64(p.peakHeap) / (1 << 20),
		"store_mib":           float64(storeB) / (1 << 20),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{v[m.name], m.unit}
	}
	return res, errs
}

// perLayerResult derives the per-layer metrics: counts from the
// untraced phase u (program counters, runtime) or the traced phase t
// (the benchmark's own per-op counts), times from t's spans.
func perLayerResult(w runner, u, t *phase, spans map[string]*spanSummary, errs []error) (result, []error) {
	errs = append(errs, phaseErrs(w, u)...)
	if t.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d traced ops failed; first: %v", t.failed, t.ops, t.firstErr))
	}
	res := result{Attempted: u.ops + t.ops, Failed: u.failed + t.failed, Metrics: make(map[string]metricValue)}
	p50 := func(name string) float64 {
		s := spans[name]
		if s == nil {
			return 0 // the layer is not on this workload's path
		}
		v, err := quantile(s.durs, 0.5)
		if err != nil {
			errs = append(errs, fmt.Errorf("span %s: %w", name, err))
		}
		return v
	}
	mean := func(name string) float64 {
		s := spans[name]
		if s == nil {
			return 0
		}
		var sum float64
		for _, d := range s.durs {
			sum += d
		}
		return ratio(sum, float64(len(s.durs)))
	}
	transfer := 0.0
	if xs := t.samplesOf("serve.http_transfer_us"); len(xs) > 0 {
		var err error
		if transfer, err = quantile(xs, 0.5); err != nil {
			errs = append(errs, fmt.Errorf("serve.http_transfer_us: %w", err))
		}
	}
	tOps, uOps := t.sum("ops"), float64(u.ops)
	perT := func(key string) float64 { return ratio(t.sum(key), tOps) }
	perU := func(n uint64) float64 { return ratio(float64(n), uOps) }
	// Pager reads: paper-cold counts its own sessions per traced op; the
	// cluster workloads read the shard stores' totals over the untraced
	// phase. Each workload has only one of the two sources.
	pg := u.delta.pager
	data := perT("pager.data") + perU(pg.Data)
	overflow := perT("pager.overflow") + perU(pg.Overflow)
	index := perT("pager.index") + perU(pg.Index)
	idindex := perT("pager.idindex") + perU(pg.IDIndex)
	cs := u.delta.cache
	v := map[string]float64{
		"pager.reads_per_op":              data + overflow + index + idindex,
		"pager.data_reads_per_op":         data,
		"pager.overflow_reads_per_op":     overflow,
		"pager.index_reads_per_op":        index,
		"pager.idindex_reads_per_op":      idindex,
		"rtree.search_us.p50":             p50("rtree.search"),
		"rtree.refs_per_search":           ratio(t.sum("rtree.refs"), t.sum("rtree.searches")),
		"dm.vi_us.p50":                    p50("dm.vi"),
		"dm.sb_us.p50":                    p50("dm.sb"),
		"dm.mb_us.p50":                    p50("dm.mb"),
		"dm.vertices_per_op":              perT("vertices"),
		"costmodel.plan_us.p50":           p50("costmodel.plan"),
		"costmodel.strips_per_plan":       ratio(t.sum("costmodel.strips"), t.sum("costmodel.plans")),
		"tilecache.hit_ratio":             ratio(float64(cs.Hits), float64(cs.TileLookups)),
		"tilecache.misses_per_op":         perU(cs.Misses),
		"tilecache.evictions_per_op":      perU(cs.Evictions),
		"tilecache.dedup_per_op":          perU(cs.DedupedMisses),
		"tilecache.materialize_da_per_op": perU(cs.MaterializeDA),
		"tilecache.patch_us.p50":          p50("tilecache.patch"),
		"stream.encode_us_per_batch":      mean("stream.encode"),
		"stream.decode_us_per_batch":      mean("stream.decode"),
		"stream.first_frame_bytes":        perT("stream.first_bytes"),
		"stream.batches_per_op":           perT("stream.batches"),
		"dm.tilewire_encode_us.p50":       p50("dm.tilewire_encode"),
		"dm.tilewire_decode_us.p50":       p50("dm.tilewire_decode"),
		"dm.tilewire_bytes_per_tile":      ratio(t.sum("http.bytes"), t.sum("http.requests")),
		"dm.stitch_us.p50":                p50("dm.stitch"),
		"serve.patch_http_us.p50":         p50("serve.patch_http"),
		"serve.http_transfer_us.p50":      transfer,
		"cluster.query_us.p50":            p50("cluster.query"),
		"cluster.tiles_per_op":            perT("cluster.tiles"),
		"cluster.attempts_per_op":         perT("cluster.attempts"),
		"cluster.redirects_per_op":        perT("cluster.redirects"),
		"runtime.gc_cycles_per_op":        perU(u.gcCycles),
		"runtime.gc_cpu_frac":             ratio(u.gcCPU, u.totalCPU),
		"obs.trace_overhead_frac":         1 - ratio(t.throughput(), u.throughput()),
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{v[m.name], m.unit}
	}
	return res, errs
}

// printSpanSummary writes per-span-name counts, median durations and
// total self time to standard error.
func printSpanSummary(spans map[string]*spanSummary) {
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-22s %8s %12s %14s\n", "span", "count", "p50_us", "self_total_ms")
	for _, n := range names {
		s := spans[n]
		p := median(s.durs)
		fmt.Fprintf(os.Stderr, "%-22s %8d %12.1f %14.1f\n", n, s.count, p, float64(s.selfTotal)/1e6)
	}
}
