package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share opID; parent is the id of the span that caused this one (0
// for an op's root).
type span struct {
	id, parent, opID int64
	name             string
	start, end       time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory for the length of a traced run. It is
// safe for concurrent use: a cluster op's HTTP spans are recorded on the
// router's fan-out goroutines.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns the time since the recorder's epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// newID reserves a span id, so a parent's id is known before it ends.
func (r *recorder) newID() int64 { return r.nextID.Add(1) }

// add stores a finished span and returns its duration.
func (r *recorder) add(s span) time.Duration {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.end - s.start
}

// timeCall runs fn as a span named name under parent and returns its
// duration. The span is recorded even when fn fails.
func (r *recorder) timeCall(opID, parent int64, name string, fn func() error) (time.Duration, error) {
	s := span{id: r.newID(), parent: parent, opID: opID, name: name, start: r.now()}
	err := fn()
	s.end = r.now()
	return r.add(s), err
}

// selfTime is a span's duration minus the part of [start, end] its
// children cover. Children may overlap (a fan-out's HTTP calls run
// concurrently), so their intervals are merged before subtracting:
// summing them instead can exceed the parent and give a negative self
// time.
func selfTime(start, end time.Duration, kids [][2]time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k[0], start), min(k[1], end)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curA, curB time.Duration
	for i, k := range iv {
		if i == 0 || k[0] > curB {
			covered += curB - curA
			curA, curB = k[0], k[1]
		} else if k[1] > curB {
			curB = k[1]
		}
	}
	covered += curB - curA
	return end - start - covered
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	count     int
	durs      []float64 // microseconds
	selfTotal time.Duration
}

// finish computes every span's self time, writes the spans to path as
// tab-separated lines (id, parent, op, name, start_ns, end_ns, self_ns)
// and returns per-name summaries. A negative self time is an error.
func (r *recorder) finish(path string) (map[string]*spanSummary, error) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	kids := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make(map[string]*spanSummary)
	var w *bufio.Writer
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
		fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns")
	}
	for _, s := range spans {
		self := selfTime(s.start, s.end, kids[s.id])
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %v", s.id, s.name, self)
		}
		sum := out[s.name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.name] = sum
		}
		sum.count++
		sum.durs = append(sum.durs, float64(s.end-s.start)/1e3)
		sum.selfTotal += self
		if w != nil {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.opID, s.name,
				int64(s.start), int64(s.end), int64(self))
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}
