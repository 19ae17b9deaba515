package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
)

// tinySize keeps set-up in the tests to a fraction of a second.
const tinySize = 33

func tinyTerrain(t *testing.T) *dmesh.Terrain {
	t.Helper()
	tr, err := buildTerrain(config{size: tinySize})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWorkloadGenerationDeterministic(t *testing.T) {
	tr := tinyTerrain(t)
	if a, b := coldOps(tr, 7), coldOps(tr, 7); !reflect.DeepEqual(a, b) {
		t.Fatal("paper-cold mix differs between two generations with one seed")
	}
	if a, b := coldOps(tr, 7), coldOps(tr, 8); reflect.DeepEqual(a, b) {
		t.Fatal("paper-cold mix is the same for seeds 7 and 8")
	}
	cfg := config{seed: 7, clients: 2}
	if a, b := hotSpot(cfg, false).ROIs(), hotSpot(cfg, false).ROIs(); !reflect.DeepEqual(a, b) {
		t.Fatal("cluster-hot ROIs differ between two generations with one seed")
	}
	if a, b := hotSpot(cfg, true).ROIs(), hotSpot(cfg, false).ROIs(); reflect.DeepEqual(a, b) {
		t.Fatal("the warm-up epoch repeats the measured epoch")
	}
	if a, b := hotSpot(cfg, false).ROIs(), hotSpot(config{seed: 8, clients: 2}, false).ROIs(); reflect.DeepEqual(a, b) {
		t.Fatal("cluster-hot ROIs are the same for seeds 7 and 8")
	}
	for c := 0; c < 2; c++ {
		if a, b := flights(cfg, c, 1), flights(cfg, c, 1); !reflect.DeepEqual(a, b) {
			t.Fatalf("flyover-evict client %d's flights differ between two generations with one seed", c)
		}
	}
	if a, b := flights(cfg, 0, 1), flights(cfg, 1, 1); reflect.DeepEqual(a, b) {
		t.Fatal("two clients fly the same paths")
	}
}

func TestQuantileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: quantile must sort
		}
		return xs
	}
	if v, err := quantile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := quantile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was accepted")
	}
	if v, err := quantile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := quantile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was accepted")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples was accepted")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	iv := func(a, b time.Duration) [2]time.Duration { return [2]time.Duration{a, b} }
	cases := []struct {
		name string
		kids [][2]time.Duration
		want time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", [][2]time.Duration{iv(10, 20), iv(50, 60)}, 80},
		// Overlapping children cover 10..60 once, and a child running
		// past the parent's end counts only inside the parent.
		{"overlapping", [][2]time.Duration{iv(30, 60), iv(10, 40), iv(80, 120)}, 30},
		{"nested", [][2]time.Duration{iv(10, 90), iv(20, 30)}, 20},
		// Summing these would claim 200 of a 100-long parent.
		{"concurrent fan-out", [][2]time.Duration{iv(0, 100), iv(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}

	r := newRecorder()
	r.add(span{id: 1, opID: 1, name: "op", start: 0, end: 100})
	r.add(span{id: 2, parent: 1, opID: 1, name: "fetch", start: 0, end: 100})
	r.add(span{id: 3, parent: 1, opID: 1, name: "fetch", start: 5, end: 100})
	sums, err := r.finish("")
	if err != nil {
		t.Fatal(err)
	}
	if sums["op"].selfTotal != 0 || sums["fetch"].count != 2 {
		t.Fatalf("summaries: op self %v, fetch count %d", sums["op"].selfTotal, sums["fetch"].count)
	}
}

func TestMatcherAgreesWithCanonicalMesh(t *testing.T) {
	tr := tinyTerrain(t)
	s, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ViewpointIndependent(geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.7, MaxY: 0.6}, tr.LODPercentile(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := dm.CanonicalMesh(res)
	var m matcher
	if !m.equal(res, want) {
		t.Fatal("an answer does not match its own canonical mesh")
	}
	if n := testing.AllocsPerRun(10, func() { m.equal(res, want) }); n != 0 {
		t.Fatalf("a warm check allocates %v times", n)
	}
	if m.equal(res, want[:len(want)-8]) || m.equal(res, append(want[:len(want):len(want)], 0)) {
		t.Fatal("a truncated or extended oracle matched")
	}
	var id int64
	for id = range res.Vertices {
		break
	}
	p := res.Vertices[id]
	res.Vertices[id] = geom.Point3{X: p.X, Y: p.Y, Z: p.Z + 1e-12}
	if m.equal(res, want) {
		t.Fatal("a moved vertex matched")
	}
	res.Vertices[id] = p
	res.Triangles = res.Triangles[1:]
	if m.equal(res, want) {
		t.Fatal("a missing triangle matched")
	}
}

// smokePhase is the length of TestSmoke's untraced phase; the traced
// phase takes half.
var smokePhase = 2 * time.Second

// TestSmoke runs every workload end to end on a tiny grid: set-up,
// oracles, an untraced and a traced phase, both metric sets.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three terrains and two clusters")
	}
	for name, setup := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, size: tinySize, shards: 3, clients: 2, budget: 48 << 10}
			w, err := setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.prepare(); err != nil {
				t.Fatal(err)
			}
			u := measure(w, smokePhase, false, nil)
			res, errs := endToEndResult(w, u, 1)
			if len(errs) > 0 || res.Failed > 0 {
				t.Fatalf("untraced: %v (%d of %d failed)", errs, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			r := newRecorder()
			tp := measure(w, smokePhase/2, true, r)
			spans, err := r.finish("")
			if err != nil {
				t.Fatal(err)
			}
			res, errs = perLayerResult(w, u, tp, spans, nil)
			if len(errs) > 0 || res.Failed > 0 {
				t.Fatalf("traced: %v (%d of %d failed)", errs, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and the
// workload names in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
