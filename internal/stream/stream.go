// Package stream is the progressive wire codec for query answers: a
// coarse base mesh followed by delta refinement batches in LOD order,
// the Devillers–Gandoin-style transmission path over the Direct Mesh
// property that every LOD prefix of the collapse sequence is a valid
// mesh. A stream for Q(r, e) carries one batch per LOD-ladder rung from
// the coarsest rung down to the rung e snaps to; decoding any batch
// prefix yields exactly the direct query answer at that prefix's rung,
// and decoding all batches reproduces the direct answer at the snapped
// target bit for bit.
//
// Wire layout (little endian; uvarint/varint are encoding/binary's):
//
//	header:
//	  magic "DMPS", version uvarint (1)
//	  ROI rect (4 x float64 bits), target E (float64 bits)
//	  batch count uvarint
//	frame, repeated (one per batch, coarse to fine):
//	  payload length uvarint, then the payload:
//	    batch index uvarint, batch E (float64 bits)
//	    removed triangles  (triangle set)
//	    removed edges      (pair set)
//	    removed vertex IDs (id set)
//	    added vertex count uvarint, then per vertex (ID ascending):
//	      ID delta uvarint (vs previous added ID; absolute for the first)
//	      flags byte: bits 0..2 mark x/y/z as dyadic, bits 3..7 reserved
//	      x, y, z: zigzag-uvarint dyadic index when flagged (the packed
//	      record fast path, wire.DyadicIndex), else raw float64 bits
//	    added edges        (pair set)
//	    added triangles    (triangle set)
//
// The sets are delta-coded against already-transmitted IDs:
//
//	id set:       count uvarint; ascending IDs, first absolute then
//	              strictly positive deltas, all uvarint
//	pair set:     count uvarint; pairs (a, b) with a < b in ascending
//	              order; a as uvarint delta vs the previous pair's a,
//	              b as uvarint(b-a)
//	triangle set: count uvarint; canonical triangles (A < B < C) in
//	              ascending order; A as uvarint delta vs the previous
//	              A, then uvarint(B-A), uvarint(C-B)
//
// Every frame is length-prefixed, so a connection cut mid-frame is
// detectable: the decoder keeps the last complete batch and the client
// resumes by passing that batch index to the server, which re-sends the
// header and skips ahead.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/wire"
)

const (
	streamMagic   = "DMPS"
	streamVersion = 1
	// maxFramePayload bounds a frame's declared payload length; far
	// above any real batch, far below anything that could balloon a
	// decoder fed a hostile length.
	maxFramePayload = 1 << 30
)

// ErrCorrupt marks stream bytes that cannot be a valid encoding (bad
// magic, non-canonical set ordering, references to vertices never
// transmitted). It is not recoverable by resuming.
var ErrCorrupt = errors.New("stream: corrupt stream")

// ErrTruncated marks a stream that ended before the announced batch
// count was delivered — a cut connection, not corruption. The decoder
// holds the last complete batch; re-request with resume=LastApplied()
// and Attach the new body to continue.
var ErrTruncated = errors.New("stream: truncated")

// LevelsFor returns the coarse-to-fine batch schedule for a query whose
// target snapped onto ladder rung band: every rung from the ladder top
// (coarsest, largest E) down to the target rung, descending. The ladder
// is ascending, as tilecache.Grid publishes it.
func LevelsFor(ladder []float64, band int) ([]float64, error) {
	if band < 0 || band >= len(ladder) {
		return nil, fmt.Errorf("stream: band %d outside ladder of %d rungs", band, len(ladder))
	}
	levels := make([]float64, 0, len(ladder)-band)
	for i := len(ladder) - 1; i >= band; i-- {
		levels = append(levels, ladder[i])
	}
	return levels, nil
}

// meshState is the decoded-so-far mesh both codec ends keep in lockstep:
// the encoder deltas each batch against it, the decoder applies each
// batch to it.
type meshState struct {
	verts map[int64]geom.Point3
	edges map[[2]int64]struct{}
	tris  map[geom.Triangle]struct{}
}

func newMeshState() meshState {
	return meshState{
		verts: make(map[int64]geom.Point3),
		edges: make(map[[2]int64]struct{}),
		tris:  make(map[geom.Triangle]struct{}),
	}
}

// stateFromResult normalizes a query answer into set form: edges with
// endpoints ascending, triangles canonical. Degenerate elements are an
// encoder-input error, not a wire condition.
func stateFromResult(res *dm.Result) (meshState, error) {
	s := meshState{
		verts: make(map[int64]geom.Point3, len(res.Vertices)),
		edges: make(map[[2]int64]struct{}, len(res.Edges)),
		tris:  make(map[geom.Triangle]struct{}, len(res.Triangles)),
	}
	for id, p := range res.Vertices {
		if id < 0 {
			return meshState{}, fmt.Errorf("stream: negative vertex ID %d", id)
		}
		s.verts[id] = p
	}
	for _, e := range res.Edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			return meshState{}, fmt.Errorf("stream: degenerate edge (%d,%d)", e[0], e[1])
		}
		s.edges[[2]int64{a, b}] = struct{}{}
	}
	for _, t := range res.Triangles {
		c := t.Canon()
		if c.A >= c.B || c.B >= c.C {
			return meshState{}, fmt.Errorf("stream: degenerate triangle (%d,%d,%d)", t.A, t.B, t.C)
		}
		s.tris[c] = struct{}{}
	}
	return s, nil
}

// result materializes the state as a dm.Result in the canonical shape
// queries produce: edges endpoint- then lexicographically sorted,
// triangles canonical and sorted.
func (s meshState) result() *dm.Result {
	res := &dm.Result{
		Vertices:  make(map[int64]geom.Point3, len(s.verts)),
		Edges:     make([][2]int64, 0, len(s.edges)),
		Triangles: make([]geom.Triangle, 0, len(s.tris)),
	}
	for id, p := range s.verts {
		res.Vertices[id] = p
	}
	for e := range s.edges {
		res.Edges = append(res.Edges, e)
	}
	slices.SortFunc(res.Edges, geom.CompareEdges)
	for t := range s.tris {
		res.Triangles = append(res.Triangles, t)
	}
	slices.SortFunc(res.Triangles, geom.CompareTriangles)
	return res
}

// Encoder turns the per-rung query answers of one ROI into the
// progressive wire form. Feed it the answers coarse to fine — one
// EncodeNext per level, in the order NewEncoder was given them.
type Encoder struct {
	rect   geom.Rect
	levels []float64
	idx    int
	prev   meshState
}

// NewEncoder prepares an encoder for a stream of len(levels) batches.
// levels must be strictly descending (coarse to fine); the last one is
// the stream's target E.
func NewEncoder(rect geom.Rect, levels []float64) (*Encoder, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("stream: no levels")
	}
	for i, e := range levels {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("stream: level %d is %g", i, e)
		}
		if i > 0 && levels[i] >= levels[i-1] {
			return nil, fmt.Errorf("stream: levels not strictly descending at %d (%g >= %g)",
				i, levels[i], levels[i-1])
		}
	}
	return &Encoder{
		rect:   rect,
		levels: append([]float64(nil), levels...),
		prev:   newMeshState(),
	}, nil
}

// NumBatches returns the stream's batch count.
func (e *Encoder) NumBatches() int { return len(e.levels) }

// TargetE returns the finest level — the LOD the full stream decodes to.
func (e *Encoder) TargetE() float64 { return e.levels[len(e.levels)-1] }

// Header returns the stream header bytes. Send once, before any frame.
func (e *Encoder) Header() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, streamMagic...)
	buf = binary.AppendUvarint(buf, streamVersion)
	buf = wire.AppendF64(buf, e.rect.MinX, e.rect.MinY, e.rect.MaxX, e.rect.MaxY, e.TargetE())
	buf = binary.AppendUvarint(buf, uint64(len(e.levels)))
	return buf
}

// EncodeNext encodes the next batch: the delta from the previous level's
// answer to mesh, which must be the query answer at the next level of
// the schedule. Returns the complete frame (length prefix included).
func (e *Encoder) EncodeNext(mesh *dm.Result) ([]byte, error) {
	if e.idx >= len(e.levels) {
		return nil, fmt.Errorf("stream: EncodeNext past the %d scheduled batches", len(e.levels))
	}
	next, err := stateFromResult(mesh)
	if err != nil {
		return nil, err
	}
	payload, err := encodeBatch(e.idx, e.levels[e.idx], e.prev, next)
	if err != nil {
		return nil, err
	}
	e.prev = next
	e.idx++
	frame := binary.AppendUvarint(make([]byte, 0, len(payload)+4), uint64(len(payload)))
	return append(frame, payload...), nil
}

// EncodeNextTraced is EncodeNext inside a PhaseStreamEncode span on tr
// (which may be nil) — pure CPU, so the span carries wall time and zero
// DA, keeping a traced stream's encode cost visible next to the rung
// queries that feed it.
func (e *Encoder) EncodeNextTraced(mesh *dm.Result, tr *obs.Trace) ([]byte, error) {
	tr.Begin(obs.PhaseStreamEncode)
	defer tr.End()
	return e.EncodeNext(mesh)
}

// encodeBatch serializes the prev -> next delta as one frame payload.
func encodeBatch(idx int, level float64, prev, next meshState) ([]byte, error) {
	var remVerts, addVerts []int64
	for id := range prev.verts {
		if _, ok := next.verts[id]; !ok {
			remVerts = append(remVerts, id)
		}
	}
	for id, p := range next.verts {
		if q, ok := prev.verts[id]; ok {
			// A refinement only splits vertices; the codec has no "move"
			// delta, so a changed position cannot be expressed.
			if math.Float64bits(p.X) != math.Float64bits(q.X) ||
				math.Float64bits(p.Y) != math.Float64bits(q.Y) ||
				math.Float64bits(p.Z) != math.Float64bits(q.Z) {
				return nil, fmt.Errorf("stream: vertex %d moved between levels", id)
			}
			continue
		}
		addVerts = append(addVerts, id)
	}
	slices.Sort(remVerts)
	slices.Sort(addVerts)

	var remEdges, addEdges [][2]int64
	for e := range prev.edges {
		if _, ok := next.edges[e]; !ok {
			remEdges = append(remEdges, e)
		}
	}
	for e := range next.edges {
		if _, ok := prev.edges[e]; !ok {
			addEdges = append(addEdges, e)
		}
	}
	slices.SortFunc(remEdges, geom.CompareEdges)
	slices.SortFunc(addEdges, geom.CompareEdges)

	var remTris, addTris []geom.Triangle
	for t := range prev.tris {
		if _, ok := next.tris[t]; !ok {
			remTris = append(remTris, t)
		}
	}
	for t := range next.tris {
		if _, ok := prev.tris[t]; !ok {
			addTris = append(addTris, t)
		}
	}
	slices.SortFunc(remTris, geom.CompareTriangles)
	slices.SortFunc(addTris, geom.CompareTriangles)

	buf := make([]byte, 0, 16+len(addVerts)*16+(len(remEdges)+len(addEdges))*4+(len(remTris)+len(addTris))*5)
	buf = binary.AppendUvarint(buf, uint64(idx))
	buf = wire.AppendF64(buf, level)
	buf = appendTriSet(buf, remTris)
	buf = appendPairSet(buf, remEdges)
	buf = appendIDSet(buf, remVerts)

	buf = binary.AppendUvarint(buf, uint64(len(addVerts)))
	prevID := int64(0)
	for i, id := range addVerts {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(id))
		} else {
			buf = binary.AppendUvarint(buf, uint64(id-prevID))
		}
		prevID = id
		p := next.verts[id]
		var flags byte
		var dy [3]int64
		for ci, v := range [3]float64{p.X, p.Y, p.Z} {
			if m, ok := wire.DyadicIndex(v); ok {
				flags |= 1 << ci
				dy[ci] = m
			}
		}
		buf = append(buf, flags)
		for ci, v := range [3]float64{p.X, p.Y, p.Z} {
			if flags&(1<<ci) != 0 {
				buf = binary.AppendUvarint(buf, wire.Zigzag(dy[ci]))
			} else {
				buf = wire.AppendF64(buf, v)
			}
		}
	}

	buf = appendPairSet(buf, addEdges)
	buf = appendTriSet(buf, addTris)
	return buf, nil
}

func appendIDSet(buf []byte, ids []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(0)
	for i, id := range ids {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(id))
		} else {
			buf = binary.AppendUvarint(buf, uint64(id-prev))
		}
		prev = id
	}
	return buf
}

func appendPairSet(buf []byte, ps [][2]int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	prevA := int64(0)
	for _, p := range ps {
		buf = binary.AppendUvarint(buf, uint64(p[0]-prevA))
		buf = binary.AppendUvarint(buf, uint64(p[1]-p[0]))
		prevA = p[0]
	}
	return buf
}

func appendTriSet(buf []byte, ts []geom.Triangle) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	prevA := int64(0)
	for _, t := range ts {
		buf = binary.AppendUvarint(buf, uint64(t.A-prevA))
		buf = binary.AppendUvarint(buf, uint64(t.B-t.A))
		buf = binary.AppendUvarint(buf, uint64(t.C-t.B))
		prevA = t.A
	}
	return buf
}

// Stream is one fully encoded progressive answer — the convenience form
// for callers that have all per-level answers in hand (experiments, the
// cluster router, tests).
type Stream struct {
	Rect   geom.Rect
	Levels []float64 // coarse to fine; the last is the target
	Header []byte
	Frames [][]byte // one frame per level, same order
}

// Encode builds the full stream for meshes[i] = Q(rect, levels[i]).
func Encode(rect geom.Rect, levels []float64, meshes []*dm.Result) (*Stream, error) {
	if len(meshes) != len(levels) {
		return nil, fmt.Errorf("stream: %d meshes for %d levels", len(meshes), len(levels))
	}
	enc, err := NewEncoder(rect, levels)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		Rect:   rect,
		Levels: append([]float64(nil), levels...),
		Header: enc.Header(),
		Frames: make([][]byte, 0, len(meshes)),
	}
	for _, m := range meshes {
		f, err := enc.EncodeNext(m)
		if err != nil {
			return nil, err
		}
		s.Frames = append(s.Frames, f)
	}
	return s, nil
}

// BytesToFirstFrame is the cost of a first renderable mesh: header plus
// the coarsest batch.
func (s *Stream) BytesToFirstFrame() int {
	n := len(s.Header)
	if len(s.Frames) > 0 {
		n += len(s.Frames[0])
	}
	return n
}

// BytesToExact is the cost of the exact answer: header plus every batch.
func (s *Stream) BytesToExact() int {
	n := len(s.Header)
	for _, f := range s.Frames {
		n += len(f)
	}
	return n
}

// WriteTo writes the resume protocol's bytes: the header, then every
// frame after batch index resume (-1 sends all). Returns bytes written.
func (s *Stream) WriteTo(w io.Writer, resume int) (int, error) {
	if resume < -1 || resume >= len(s.Frames) {
		return 0, fmt.Errorf("stream: resume index %d outside [-1, %d)", resume, len(s.Frames))
	}
	total := 0
	n, err := w.Write(s.Header)
	total += n
	if err != nil {
		return total, err
	}
	for _, f := range s.Frames[resume+1:] {
		n, err := w.Write(f)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
