package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/serve"
	"dmesh/internal/tilecache"
)

// scriptedShard answers every /patch with the body and Content-Length
// it is currently set to, whatever the key: a shard whose bytes for a
// key can change, be corrupt, or lie about their length.
type scriptedShard struct {
	mu       sync.Mutex
	body     []byte
	declared int
}

func (s *scriptedShard) set(body []byte, declared int) {
	s.mu.Lock()
	s.body, s.declared = body, declared
	s.mu.Unlock()
}

func (s *scriptedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body, declared := s.body, s.declared
	s.mu.Unlock()
	w.Header().Set("Content-Length", strconv.Itoa(declared))
	w.Write(body)
}

// twoPatches materializes two different tiles of a small terrain and
// returns their wire encodings.
func twoPatches(t *testing.T) (*tilecache.Grid, []byte, []byte) {
	t.Helper()
	tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 17, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Terrain: tr})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	for i := range bodies {
		if bodies[i], _, err = s.Cache().PatchWireTraced(tilecache.Key{Level: 1, IX: i, Band: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("two tiles encode alike")
	}
	return s.Grid(), bodies[0], bodies[1]
}

// TestMemoFollowsBodies drives getPatch against a scripted shard: equal
// bytes are a memo hit returning the memoized patch, a changed valid
// body is decoded and replaces the entry, and no corrupt or truncated
// body — honest or lying Content-Length, bad magic, trailing bytes —
// replaces a good entry.
func TestMemoFollowsBodies(t *testing.T) {
	grid, bodyA, bodyB := twoPatches(t)
	shard := &scriptedShard{}
	ts := httptest.NewServer(shard)
	defer ts.Close()
	reg := obs.NewRegistry()
	rt, err := NewRouter(Config{Shards: []string{ts.URL}, Grid: grid, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	decodes := reg.Counter("cluster_router_patch_decodes_total", "")
	hits := reg.Counter("cluster_router_patch_memo_hits_total", "")
	k := tilecache.Key{Level: 1, Band: 1}
	fetch := func(wantDecodes, wantHits uint64, want []byte) *dm.TilePatch {
		t.Helper()
		tp, _, _, err := rt.getPatch(ts.URL, k, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dm.EncodeTilePatch(tp), want) {
			t.Fatal("fetched patch does not encode to the served body")
		}
		if decodes.Value() != wantDecodes || hits.Value() != wantHits {
			t.Fatalf("decodes %d, hits %d; want %d, %d", decodes.Value(), hits.Value(), wantDecodes, wantHits)
		}
		return tp
	}

	shard.set(bodyA, len(bodyA))
	tpA := fetch(1, 0, bodyA)
	if fetch(1, 1, bodyA) != tpA {
		t.Fatal("memo hit returned a different patch")
	}
	shard.set(bodyB, len(bodyB)) // the key's bytes change: a new valid patch
	tpB := fetch(2, 1, bodyB)
	if fetch(2, 2, bodyB) != tpB {
		t.Fatal("memo hit returned a different patch")
	}

	badMagic := append([]byte{bodyB[0] ^ 0xff}, bodyB[1:]...)
	for _, bad := range []struct {
		name     string
		body     []byte
		declared int
		corrupt  bool // must wrap dm.ErrCorrupt
	}{
		{"truncated, honest length", bodyB[:len(bodyB)/2], len(bodyB) / 2, true},
		{"truncated, lying length", bodyB[:len(bodyB)/2], len(bodyB), true},
		{"bad magic", badMagic, len(badMagic), true},
		{"trailing byte", append(append([]byte(nil), bodyB...), 0), len(bodyB) + 1, true},
	} {
		shard.set(bad.body, bad.declared)
		_, _, _, err := rt.getPatch(ts.URL, k, false)
		if err == nil {
			t.Fatalf("%s: accepted", bad.name)
		}
		if bad.corrupt && !errors.Is(err, dm.ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap dm.ErrCorrupt", bad.name, err)
		}
	}
	shard.set(bodyB, len(bodyB))
	if fetch(2, 3, bodyB) != tpB {
		t.Fatal("a bad body replaced the good memo entry")
	}
}

// TestMemoBudget: the memo charges Bytes()+len(wire) per entry, evicts
// least recently used first, never holds more than its budget, and does
// not retain a patch larger than the whole budget.
func TestMemoBudget(t *testing.T) {
	_, bodyA, bodyB := twoPatches(t)
	tpA, err := dm.DecodeTilePatch(bodyA)
	if err != nil {
		t.Fatal(err)
	}
	tpB, err := dm.DecodeTilePatch(bodyB)
	if err != nil {
		t.Fatal(err)
	}
	sizeA, sizeB := tpA.Bytes()+len(bodyA), tpB.Bytes()+len(bodyB)
	kA, kB, kC := tilecache.Key{IX: 0}, tilecache.Key{IX: 1}, tilecache.Key{IX: 2}

	m := newPatchMemo(sizeA + sizeB)
	m.put(kA, bodyA, tpA)
	m.put(kB, bodyB, tpB)
	if m.size() != sizeA+sizeB {
		t.Fatalf("size %d, want %d", m.size(), sizeA+sizeB)
	}
	if _, ok := m.get(kA, bodyA); !ok { // kA becomes most recent
		t.Fatal("miss on a resident entry")
	}
	m.put(kC, bodyB, tpB) // evicts kB, the least recently used
	if _, ok := m.get(kB, bodyB); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := m.get(kA, bodyA); !ok {
		t.Fatal("recently used entry evicted")
	}
	if m.size() != sizeA+sizeB {
		t.Fatalf("size %d, want %d", m.size(), sizeA+sizeB)
	}

	small := newPatchMemo(sizeA - 1)
	small.put(kA, bodyA, tpA)
	if _, ok := small.get(kA, bodyA); ok || small.size() != 0 {
		t.Fatalf("retained a patch over the whole budget (size %d)", small.size())
	}
}

// TestReadBody: a declared length is read into an exact-size buffer and
// enforced both ways; an undeclared one reads to EOF.
func TestReadBody(t *testing.T) {
	body := []byte("0123456789")
	resp := func(b []byte, declared int64) *http.Response {
		return &http.Response{Body: io.NopCloser(bytes.NewReader(b)), ContentLength: declared}
	}
	got, err := readBody(resp(body, 10))
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body) {
		t.Fatalf("exact: %q (cap %d), %v", got, cap(got), err)
	}
	if got, err := readBody(resp(body, -1)); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("undeclared: %q, %v", got, err)
	}
	for _, declared := range []int64{9, 11, 0} {
		if _, err := readBody(resp(body, declared)); !errors.Is(err, dm.ErrCorrupt) {
			t.Fatalf("%d bytes declared for 10: %v, want dm.ErrCorrupt", declared, err)
		}
		if _, err := readBodyInto(resp(body, declared), make([]byte, 0, 64)); !errors.Is(err, dm.ErrCorrupt) {
			t.Fatalf("into a buffer, %d bytes declared for 10: %v, want dm.ErrCorrupt", declared, err)
		}
	}
	// A buffer holding the declared length is reused; a smaller one is not.
	buf := make([]byte, 3, 64)
	if got, err := readBodyInto(resp(body, 10), buf); err != nil || !bytes.Equal(got, body) || &got[0] != &buf[:1][0] {
		t.Fatalf("into a large buffer: %q, %v (or buffer not reused)", got, err)
	}
	small := make([]byte, 0, 9)
	if got, err := readBodyInto(resp(body, 10), small); err != nil || !bytes.Equal(got, body) || &got[0] == &small[:1][0] {
		t.Fatalf("into a small buffer: %q, %v", got, err)
	}
}

// twinShard fronts a real shard handler and varies its /patch answers
// per request: a flaky shard fails every other request (status 503, or
// a body cut short of its declared length) and serves the real body
// otherwise; any other shard serves, on every other request, a second
// valid body for the same key — the patch re-encoded with
// FetchedRecords bumped, which changes the bytes but not the mesh.
type twinShard struct {
	h     http.Handler
	flaky bool
	n     atomic.Uint64
}

func (s *twinShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r)
	body, declared, status := rec.Body.Bytes(), rec.Body.Len(), rec.Code
	if r.URL.Path == "/patch" && status == http.StatusOK {
		switch n := s.n.Add(1); {
		case s.flaky && n%4 == 1:
			body, status = []byte("shard overloaded"), http.StatusServiceUnavailable
			declared = len(body)
		case s.flaky && n%4 == 3:
			body = body[:len(body)/2]
		case !s.flaky && n%2 == 0:
			tp, err := dm.DecodeTilePatch(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			tp.FetchedRecords++
			body = dm.EncodeTilePatch(tp)
			declared = len(body)
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Set("Content-Length", strconv.Itoa(declared))
	w.WriteHeader(status)
	w.Write(body)
}

// TestPooledBodiesNeverAliasMemo drives the pooled body buffers from 8
// goroutines against one tile key whose bytes keep changing between two
// valid bodies, interleaved with failed fetches. Every answer must be
// the single-node answer; every memo entry's wire must stay the body its
// patch was decoded from, so no recycled buffer ever overwrites it; and
// no buffer left in the pool may be one the memo owns.
func TestPooledBodiesNeverAliasMemo(t *testing.T) {
	tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 17, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Terrain: tr})
	if err != nil {
		t.Fatal(err)
	}
	var shards [2]*twinShard
	var urls []string
	for i := range shards {
		shards[i] = &twinShard{h: s.Handler(false)}
		ts := httptest.NewServer(shards[i])
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	reg := obs.NewRegistry()
	rt, err := NewRouter(Config{Shards: urls, Grid: s.Grid(), MaxAttempts: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0.26, MinY: 0.26, MaxX: 0.49, MaxY: 0.49} // inside one level-2 tile
	e := tr.LODPercentile(0.2)
	band, _ := s.Grid().SnapE(e)
	keys := s.Grid().Cover(r, s.Grid().LevelFor(r), band)
	if len(keys) != 1 {
		t.Fatalf("ROI covers %d tiles, want 1", len(keys))
	}
	// The key's first candidate fails every other fetch, so the second
	// one serves the twin bodies half the time.
	shards[rt.candidates(keys[0])[0]].flaky = true
	direct, _, err := s.Cache().Query(r, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Triangles) == 0 {
		t.Fatal("empty single-node answer")
	}
	want := dm.CanonicalMesh(direct)

	memoIntact := func() error {
		rt.memo.mu.Lock()
		defer rt.memo.mu.Unlock()
		for el := rt.memo.lru.Front(); el != nil; el = el.Next() {
			me := el.Value.(*memoEntry)
			if !bytes.Equal(dm.EncodeTilePatch(me.tp), me.wire) {
				return fmt.Errorf("memo entry %s: wire is no longer the body its patch was decoded from", me.key)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, _, err := rt.Query(r, e)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(dm.CanonicalMesh(res), want) {
					t.Error("cluster answer differs from the single-node answer")
					return
				}
				if err := memoIntact(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	decodes := reg.Counter("cluster_router_patch_decodes_total", "").Value()
	hits := reg.Counter("cluster_router_patch_memo_hits_total", "").Value()
	errs := reg.Counter("cluster_router_shard_errors_total", "").Value()
	if decodes < 2 || hits == 0 || errs == 0 {
		t.Fatalf("decodes %d, memo hits %d, shard errors %d: want body changes, hits and failures", decodes, hits, errs)
	}
	var owned [][]byte
	rt.memo.mu.Lock()
	for el := rt.memo.lru.Front(); el != nil; el = el.Next() {
		owned = append(owned, el.Value.(*memoEntry).wire)
	}
	rt.memo.mu.Unlock()
	for i := 0; i < 64; i++ {
		bp := bodyPool.Get().(*[]byte)
		for _, w := range owned {
			if cap(*bp) > 0 && cap(w) > 0 && &(*bp)[:1][0] == &w[:1][0] {
				t.Fatal("the body pool holds a buffer the memo owns")
			}
		}
	}
}
