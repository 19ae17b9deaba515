package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dmesh/internal/dm"
	"dmesh/internal/obs"
	"dmesh/internal/tilecache"
)

// TestPatchServesCachedWire: every /patch body of a resident tile is
// dm.EncodeTilePatch of the cache's patch byte for byte, cold and warm,
// and the wire the cache keeps for them is exported as the
// tileserver_cache_wire_bytes gauge, back to 0 once the cache is
// invalidated.
func TestPatchServesCachedWire(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()

	wireGauge := func() int64 {
		t.Helper()
		_, body := Fetch(t, ts.URL, "/metrics")
		snap, err := obs.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		m := snap.Metrics["tileserver_cache_wire_bytes"]
		if m == nil {
			t.Fatal("/metrics lacks tileserver_cache_wire_bytes")
		}
		return m.Value
	}

	g := s.Grid()
	var keys []tilecache.Key
	for band := range g.Ladder() {
		for iy := 0; iy < 2; iy++ {
			for ix := 0; ix < 2; ix++ {
				keys = append(keys, tilecache.Key{Level: 1, IX: ix, IY: iy, Band: band})
			}
		}
	}
	for pass := 0; pass < 2; pass++ { // cold, then warm
		for _, k := range keys {
			resp, body := Fetch(t, ts.URL, fmt.Sprintf("/patch?level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("patch %v: status %d: %s", k, resp.StatusCode, body)
			}
			tp, _, err := s.Cache().Patch(k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, dm.EncodeTilePatch(tp)) {
				t.Fatalf("pass %d, patch %v: body differs from EncodeTilePatch", pass, k)
			}
		}
	}
	st := s.Cache().Stats()
	if st.WireBytes == 0 {
		t.Fatalf("no wire kept after serving %d resident tiles: %+v", len(keys), st)
	}
	if got := wireGauge(); got != int64(st.WireBytes) {
		t.Fatalf("tileserver_cache_wire_bytes = %d, Stats.WireBytes = %d", got, st.WireBytes)
	}
	s.Cache().InvalidateAll()
	if got := wireGauge(); got != 0 {
		t.Fatalf("tileserver_cache_wire_bytes = %d after InvalidateAll, want 0", got)
	}
}
