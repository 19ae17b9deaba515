package stream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
	"dmesh/internal/wire"
)

var (
	fixOnce sync.Once
	fixes   map[string]*fixture
)

type fixture struct {
	terrain *dmesh.Terrain
	store   *dmesh.DMStore
	cache   *tilecache.Cache
}

// fix memoizes one terrain + store + tile cache per dataset; building
// (simplification above all) dominates test time.
func fix(t testing.TB, name string) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		fixes = make(map[string]*fixture)
		for _, n := range []string{"highland", "crater"} {
			tr, err := dmesh.Build(dmesh.Config{Dataset: n, Size: 17, Seed: 7})
			if err != nil {
				panic(err)
			}
			s, err := tr.NewDMStore()
			if err != nil {
				panic(err)
			}
			c, err := tr.NewTileCache(s, 0)
			if err != nil {
				panic(err)
			}
			fixes[n] = &fixture{terrain: tr, store: s, cache: c}
		}
	})
	return fixes[name]
}

func randRects(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		w := 0.15 + rng.Float64()*0.5
		h := 0.15 + rng.Float64()*0.5
		x := rng.Float64() * (1 - w)
		y := rng.Float64() * (1 - h)
		out = append(out, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
	}
	return out
}

// encodeStream builds the progressive stream for Q(roi, target) out of
// the fixture's tile cache, returning the stream and its levels.
func encodeStream(t testing.TB, f *fixture, roi geom.Rect, band int) *stream.Stream {
	t.Helper()
	levels, err := stream.LevelsFor(f.cache.Grid().Ladder(), band)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]*dm.Result, 0, len(levels))
	for _, e := range levels {
		res, _, err := f.cache.Query(roi, e)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, res)
	}
	st, err := stream.Encode(roi, levels, meshes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func flatten(st *stream.Stream) []byte {
	var buf bytes.Buffer
	buf.Write(st.Header)
	for _, f := range st.Frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// TestStreamPrefixExactness is the core property on both datasets:
// for random ROIs and LOD bands, decoding any batch prefix yields
// exactly (canonical serialization) the direct query answer at that
// prefix's rung, and the full stream reproduces the direct answer at
// the target. Run under -race by make verify.
func TestStreamPrefixExactness(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		t.Run(name, func(t *testing.T) {
			f := fix(t, name)
			ladder := f.cache.Grid().Ladder()
			rng := rand.New(rand.NewSource(11))
			for qi, roi := range randRects(rng, 6) {
				band := rng.Intn(len(ladder))
				st := encodeStream(t, f, roi, band)
				if got, want := len(st.Frames), len(ladder)-band; got != want {
					t.Fatalf("query %d: %d batches, want %d", qi, got, want)
				}
				if st.BytesToFirstFrame() >= st.BytesToExact() && len(st.Frames) > 1 {
					t.Fatalf("query %d: first frame (%d B) not cheaper than exact (%d B)",
						qi, st.BytesToFirstFrame(), st.BytesToExact())
				}

				dec := stream.NewDecoder()
				if err := dec.Attach(bytes.NewReader(flatten(st))); err != nil {
					t.Fatal(err)
				}
				for !dec.Done() {
					idx, e, err := dec.Next()
					if err != nil {
						t.Fatalf("query %d batch %d: %v", qi, idx, err)
					}
					direct, derr := f.store.ViewpointIndependent(roi, e)
					if derr != nil {
						t.Fatal(derr)
					}
					if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), dm.CanonicalMesh(direct)) {
						t.Fatalf("query %d: prefix through batch %d (E %g) differs from direct query", qi, idx, e)
					}
				}
				if _, _, err := dec.Next(); err != io.EOF {
					t.Fatalf("Next after completion: %v, want io.EOF", err)
				}
				if dec.LastE() != ladder[band] {
					t.Fatalf("final E %g, want rung %g", dec.LastE(), ladder[band])
				}
				if dec.BytesRead() != int64(st.BytesToExact()) {
					t.Fatalf("decoder consumed %d B, stream is %d B", dec.BytesRead(), st.BytesToExact())
				}
				if dec.BytesToFirstFrame() != int64(st.BytesToFirstFrame()) {
					t.Fatalf("decoder first-frame bytes %d, encoder says %d",
						dec.BytesToFirstFrame(), st.BytesToFirstFrame())
				}
			}
		})
	}
}

// TestStreamTruncationAndResume cuts one stream at a sweep of byte
// positions: the decoder must keep the last complete batch, report
// ErrTruncated (never panic, never corrupt state), and complete exactly
// after re-attaching a resumed body (header + the batches it lacks).
func TestStreamTruncationAndResume(t *testing.T) {
	f := fix(t, "highland")
	ladder := f.cache.Grid().Ladder()
	roi := geom.Rect{MinX: 0.2, MinY: 0.15, MaxX: 0.8, MaxY: 0.75}
	st := encodeStream(t, f, roi, 0) // deepest target: every rung
	full := flatten(st)
	direct, err := f.store.ViewpointIndependent(roi, ladder[0])
	if err != nil {
		t.Fatal(err)
	}
	want := dm.CanonicalMesh(direct)

	// Cut positions: every frame boundary, one byte to each side of it,
	// and a few interior points per frame.
	cuts := map[int]bool{0: true, 1: true, len(st.Header) - 1: true, len(st.Header): true}
	off := len(st.Header)
	for _, fr := range st.Frames {
		for _, c := range []int{off + 1, off + len(fr)/2, off + len(fr) - 1, off + len(fr)} {
			if c >= 0 && c <= len(full) {
				cuts[c] = true
			}
		}
		off += len(fr)
	}
	for cut := range cuts {
		dec := stream.NewDecoder()
		err := dec.Attach(bytes.NewReader(full[:cut]))
		if err != nil {
			if !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("cut %d: Attach: %v, want ErrTruncated", cut, err)
			}
		} else {
			for !dec.Done() {
				if _, _, err := dec.Next(); err != nil {
					if !errors.Is(err, stream.ErrTruncated) {
						t.Fatalf("cut %d: %v, want ErrTruncated", cut, err)
					}
					break
				}
			}
		}
		if dec.Done() {
			if cut != len(full) {
				t.Fatalf("cut %d: decoder done early", cut)
			}
			continue
		}

		// Resume: the server's protocol re-sends the header and skips
		// every batch the client confirmed.
		var resumed bytes.Buffer
		if _, err := st.WriteTo(&resumed, dec.LastApplied()); err != nil {
			t.Fatal(err)
		}
		if err := dec.Attach(&resumed); err != nil {
			t.Fatalf("cut %d: resumed Attach: %v", cut, err)
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				t.Fatalf("cut %d: resumed Next: %v", cut, err)
			}
		}
		if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), want) {
			t.Fatalf("cut %d: resumed stream decodes a different mesh", cut)
		}
	}
}

// TestStreamResumeHeaderMismatch: a resumed body for a different query
// must be rejected, not silently applied.
func TestStreamResumeHeaderMismatch(t *testing.T) {
	f := fix(t, "highland")
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	st := encodeStream(t, f, roi, 0)
	other := encodeStream(t, f, geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.5, MaxY: 0.5}, 0)

	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(flatten(st))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Attach(bytes.NewReader(flatten(other))); !errors.Is(err, stream.ErrCorrupt) {
		t.Fatalf("mismatched resume header: %v, want ErrCorrupt", err)
	}
}

// decodeAll decodes a whole stream, returning each batch's E and mesh
// snapshot, the decoder, and the first error.
func decodeAll(b []byte) ([]float64, []*dm.Result, *stream.Decoder, error) {
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(b)); err != nil {
		return nil, nil, dec, err
	}
	var levels []float64
	var meshes []*dm.Result
	for !dec.Done() {
		_, e, err := dec.Next()
		if err != nil {
			return levels, meshes, dec, err
		}
		levels = append(levels, e)
		meshes = append(meshes, dec.Mesh())
	}
	return levels, meshes, dec, nil
}

// handStream assembles a stream over the unit square by hand: the
// header for levels, then one frame per payload.
func handStream(levels []float64, payloads ...[]byte) []byte {
	b := append([]byte("DMPS"), 1)
	b = wire.AppendF64(b, 0, 0, 1, 1, levels[len(levels)-1])
	b = binary.AppendUvarint(b, uint64(len(levels)))
	for _, p := range payloads {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// handBatch assembles one payload: batch index and E, then the six
// sections (removed triangles, edges, vertices; added vertices, edges,
// triangles) as raw bytes.
func handBatch(idx byte, e float64, sections ...[]byte) []byte {
	b := wire.AppendF64([]byte{idx}, e)
	for _, s := range sections {
		b = append(b, s...)
	}
	return b
}

// TestStreamCorruptionRejected flips single bytes across one encoded
// stream: the decoder must never panic; any error must be ErrCorrupt or
// ErrTruncated. (A flip inside raw coordinate bits can decode to a
// different valid mesh — that is the quantizer's job to care about, not
// the framing's.) Hand-built streams the encoder never emits must be
// rejected with ErrCorrupt even where they would decode to a mesh: the
// codec has one spelling per stream.
func TestStreamCorruptionRejected(t *testing.T) {
	none := []byte{0}
	// Batch 0 adds vertices 0, 1, 2 at (i, i, i)/4096 (dyadic indices
	// zigzag to 2i), edge (0, 1) and triangle (0, 1, 2).
	base := handBatch(0, 2, none, none, none,
		[]byte{3, 0, 7, 0, 0, 0, 1, 7, 2, 2, 2, 1, 7, 4, 4, 4}, []byte{1, 0, 1}, []byte{1, 0, 1, 1})
	refine := handBatch(1, 1, none, none, none, []byte{1, 3, 7, 6, 6, 6}, none, none)
	valid := handStream([]float64{2, 1}, base, refine)
	if levels, meshes, dec, err := decodeAll(valid); err != nil {
		t.Fatalf("hand-built stream: %v", err)
	} else if st, err := stream.Encode(dec.Rect(), levels, meshes); err != nil || !bytes.Equal(flatten(st), valid) {
		t.Fatalf("hand-built stream does not round-trip: %v", err)
	}
	rawHalf := wire.AppendF64([]byte{1, 0, 0}, 0.5, 0.1, 0.1) // flags 0: x raw but dyadic
	nonMinimal := append([]byte(nil), valid[:46]...)          // the 46-byte header
	nonMinimal = append(append(nonMinimal, byte(len(base))|0x80, 0), valid[47:]...)
	for name, b := range map[string][]byte{
		"raw-spelled dyadic coordinate": handStream([]float64{1}, handBatch(0, 1, none, none, none, rawHalf, none, none)),
		"vertex removed and re-added": handStream([]float64{2, 1}, base,
			handBatch(1, 1, none, none, []byte{1, 2}, []byte{1, 2, 7, 6, 6, 6}, none, none)),
		"edge removed and re-added": handStream([]float64{2, 1}, base,
			handBatch(1, 1, none, []byte{1, 0, 1}, none, none, []byte{1, 0, 1}, none)),
		"triangle removed and re-added": handStream([]float64{2, 1}, base,
			handBatch(1, 1, []byte{1, 0, 1, 1}, none, none, none, none, []byte{1, 0, 1, 1})),
		"NaN batch E":              handStream([]float64{math.NaN()}, handBatch(0, math.NaN(), none, none, none, none, none, none)),
		"non-minimal frame length": nonMinimal,
	} {
		if _, _, _, err := decodeAll(b); !errors.Is(err, stream.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	f := fix(t, "highland")
	roi := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.7, MaxY: 0.6}
	full := flatten(encodeStream(t, f, roi, 0))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(full))
		mut := append([]byte(nil), full...)
		mut[pos] ^= byte(1 + rng.Intn(255))
		dec := stream.NewDecoder()
		if err := dec.Attach(bytes.NewReader(mut)); err != nil {
			if !errors.Is(err, stream.ErrCorrupt) && !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("flip at %d: Attach: %v", pos, err)
			}
			continue
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				if !errors.Is(err, stream.ErrCorrupt) && !errors.Is(err, stream.ErrTruncated) {
					t.Fatalf("flip at %d: Next: %v", pos, err)
				}
				break
			}
		}
	}
}

// TestLevelsFor pins the batch schedule: coarse to fine, down to the
// target band, errors outside the ladder.
func TestLevelsFor(t *testing.T) {
	ladder := []float64{1, 2, 4, 8}
	levels, err := stream.LevelsFor(ladder, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 8 || levels[1] != 4 || levels[2] != 2 {
		t.Fatalf("LevelsFor(band 1) = %v", levels)
	}
	for _, band := range []int{-1, 4} {
		if _, err := stream.LevelsFor(ladder, band); err == nil {
			t.Fatalf("LevelsFor(band %d) succeeded", band)
		}
	}
}

// TestEncoderValidation pins the encoder's input contract.
func TestEncoderValidation(t *testing.T) {
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if _, err := stream.NewEncoder(rect, nil); err == nil {
		t.Fatal("NewEncoder with no levels succeeded")
	}
	if _, err := stream.NewEncoder(rect, []float64{1, 2}); err == nil {
		t.Fatal("NewEncoder with ascending levels succeeded")
	}
	enc, err := stream.NewEncoder(rect, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	empty := &dm.Result{Vertices: map[int64]geom.Point3{}}
	if _, err := enc.EncodeNext(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeNext(empty); err == nil {
		t.Fatal("EncodeNext past the schedule succeeded")
	}
}

// FuzzStreamDecode feeds arbitrary bytes to the progressive stream
// decoder — the bytes a client reads off a possibly cut or corrupted
// connection. It must never panic, every error must wrap ErrCorrupt or
// ErrTruncated, and a stream decoded to completion must re-encode, from
// its decoded batch E values and mesh snapshots, to the bytes the
// decoder consumed. (The decoder stops at the announced batch count, so
// bytes after the final frame are never read.)
func FuzzStreamDecode(f *testing.F) {
	fx := fix(f, "highland")
	full := flatten(encodeStream(f, fx, geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.55}, 1))
	for i := 0; i <= len(full); i++ {
		f.Add(full[:i:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		levels, meshes, dec, err := decodeAll(data)
		if err != nil {
			if !errors.Is(err, stream.ErrCorrupt) && !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrTruncated", err)
			}
			return
		}
		st, err := stream.Encode(dec.Rect(), levels, meshes)
		if err != nil {
			t.Fatalf("decoded stream does not re-encode: %v", err)
		}
		if re := flatten(st); !bytes.Equal(re, data[:dec.BytesRead()]) {
			t.Fatalf("decode/encode not the identity:\n in: %x\nout: %x", data[:dec.BytesRead()], re)
		}
	})
}
