package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// client is one closed-loop request stream: it sends its next op only
// when the previous answer is back and checked.
type client struct {
	idx  int
	next int // ops issued; the pool position is next % pool
	m    matcher

	lat, first []float64 // milliseconds
	bytes      float64
	ops        int
	failed     int
	firstErr   error

	// Traced phases only.
	rec     *recorder
	sums    map[string]float64 // per-layer counts, divided by traced ops
	samples map[string][]float64
}

func (c *client) add(key string, v float64) { c.sums[key] += v }

func (c *client) sample(key string, v float64) { c.samples[key] = append(c.samples[key], v) }

// phase is the outcome of one closed-loop measurement.
type phase struct {
	clients []*client
	elapsed time.Duration

	ops, failed int
	firstErr    error
	lat, first  []float64
	bytes       float64

	allocBytes uint64
	peakHeap   uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
	delta      counters
}

// runtimeSample reads the runtime counters a phase reports.
type runtimeSample struct{ gcCycles, gcCPU, totalCPU float64 }

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: v(0), gcCPU: v(1), totalCPU: v(2)}
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes
// while it runs. runtime/metrics reads do not stop the world, unlike
// runtime.ReadMemStats.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// measure runs w's closed loops for d and gathers the phase's samples.
// Each client starts at the head of its op pool.
func measure(w runner, d time.Duration, traced bool, rec *recorder) *phase {
	p := &phase{}
	for i := 0; i < w.clients(); i++ {
		c := &client{idx: i, rec: rec}
		if traced {
			c.sums = make(map[string]float64)
			c.samples = make(map[string][]float64)
		}
		p.clients = append(p.clients, c)
	}
	runtime.GC()
	before := w.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	rt0 := readRuntime()
	heap := startHeapSampler(5 * time.Millisecond)

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			n := w.pool(c.idx)
			for time.Now().Before(deadline) {
				i := c.next % n
				c.next++
				var o outcome
				if traced {
					o = w.tracedOp(c, i)
				} else {
					o = w.op(c, i)
				}
				c.ops++
				if o.err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = o.err
					}
					continue
				}
				c.lat = append(c.lat, float64(o.lat)/1e6)
				c.first = append(c.first, float64(o.first)/1e6)
				c.bytes += float64(o.bytes)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)

	p.peakHeap = heap.finish()
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - alloc0
	p.gcCycles = uint64(rt1.gcCycles - rt0.gcCycles)
	p.gcCPU = rt1.gcCPU - rt0.gcCPU
	p.totalCPU = rt1.totalCPU - rt0.totalCPU
	p.delta = w.counters().sub(before)
	for _, c := range p.clients {
		p.ops += c.ops
		p.failed += c.failed
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		p.lat = append(p.lat, c.lat...)
		p.first = append(p.first, c.first...)
		p.bytes += c.bytes
	}
	return p
}

// throughput is correctly answered ops per second of the phase's wall time.
func (p *phase) throughput() float64 { return ratio(float64(p.ops-p.failed), p.elapsed.Seconds()) }

// covered reports whether every client ran each op of its pool.
func (p *phase) covered(w runner) bool {
	for _, c := range p.clients {
		if c.next < w.pool(c.idx) {
			return false
		}
	}
	return true
}

// sum totals a per-layer count over the clients of a traced phase.
func (p *phase) sum(key string) float64 {
	var s float64
	for _, c := range p.clients {
		s += c.sums[key]
	}
	return s
}

// samplesOf gathers a per-layer sample set over the clients.
func (p *phase) samplesOf(key string) []float64 {
	var out []float64
	for _, c := range p.clients {
		out = append(out, c.samples[key]...)
	}
	return out
}
