package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// Decoder reconstructs a progressive stream batch by batch. After any
// number of Next calls, Mesh() is the exact direct-query answer at the
// last applied batch's LOD; after NumBatches successful calls it is the
// exact answer at the stream's target.
//
// Truncation is recoverable: a Next that fails with ErrTruncated leaves
// the decoder at the last complete batch. Re-request the stream with
// resume=LastApplied() and Attach the new response body; the decoder
// verifies the re-sent header matches and continues where it stopped.
type Decoder struct {
	r         io.Reader
	started   bool
	rect      geom.Rect
	targetE   float64
	nBatches  int
	next      int
	lastE     float64
	bytesRead int64
	bytesAt1  int64 // bytesRead when the first batch completed
	state     meshState
	sticky    error
}

// NewDecoder returns an empty decoder; Attach a response body to start.
func NewDecoder() *Decoder {
	return &Decoder{state: newMeshState()}
}

// read pulls exactly len(p) bytes, counting them.
func (d *Decoder) read(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.bytesRead += int64(n)
	return err
}

// ReadByte makes the decoder its own io.ByteReader for the frame length
// varints, so no buffering reader sits between it and the body (a
// buffered reader would over-read past frame boundaries and break the
// byte accounting).
func (d *Decoder) ReadByte() (byte, error) {
	var b [1]byte
	if err := d.read(b[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, err
	}
	return b[0], nil
}

// Attach starts reading from r: it consumes and validates the stream
// header. The first Attach fixes the stream identity (ROI, target,
// batch count); later Attaches — resumed requests — must match it.
func (d *Decoder) Attach(r io.Reader) error {
	if d.sticky != nil {
		return d.sticky
	}
	d.r = r
	magic := make([]byte, len(streamMagic))
	if err := d.read(magic); err != nil {
		return fmt.Errorf("stream: reading header: %w", ErrTruncated)
	}
	if string(magic) != streamMagic {
		return d.poison(fmt.Errorf("stream: bad magic %q: %w", magic, ErrCorrupt))
	}
	version, err := d.uvarint("header version")
	if err != nil {
		return err
	}
	if version != streamVersion {
		return d.poison(fmt.Errorf("stream: unsupported version %d: %w", version, ErrCorrupt))
	}
	var f [5]float64
	raw := make([]byte, 8*len(f))
	if err := d.read(raw); err != nil {
		return fmt.Errorf("stream: reading header: %w", ErrTruncated)
	}
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	n, err := d.uvarint("header batch count")
	if err != nil {
		return err
	}
	rect := geom.Rect{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}
	targetE := f[4]
	if n == 0 || n > maxFramePayload {
		return d.poison(fmt.Errorf("stream: impossible batch count %d: %w", n, ErrCorrupt))
	}
	if !d.started {
		d.started = true
		d.rect, d.targetE, d.nBatches = rect, targetE, int(n)
		return nil
	}
	if rect != d.rect || math.Float64bits(targetE) != math.Float64bits(d.targetE) || int(n) != d.nBatches {
		return d.poison(fmt.Errorf("stream: resumed header mismatch (rect %v target %g batches %d, want %v %g %d): %w",
			rect, targetE, n, d.rect, d.targetE, d.nBatches, ErrCorrupt))
	}
	return nil
}

// uvarint reads a header or frame-length uvarint. A short read is a
// resumable cut (ErrTruncated); a non-minimal or overlong spelling is
// corruption and poisons the decoder.
func (d *Decoder) uvarint(what string) (uint64, error) {
	v, err := wire.ReadUvarint(d, ErrCorrupt)
	switch {
	case err == nil:
		return v, nil
	case errors.Is(err, ErrCorrupt):
		return 0, d.poison(fmt.Errorf("stream: %s before batch %d: %w", what, d.next, err))
	default:
		return 0, fmt.Errorf("stream: %s before batch %d: %w", what, d.next, ErrTruncated)
	}
}

func (d *Decoder) poison(err error) error {
	d.sticky = err
	return err
}

// Done reports whether every announced batch has been applied.
func (d *Decoder) Done() bool { return d.started && d.next >= d.nBatches }

// LastApplied returns the index of the last applied batch, -1 before the
// first — exactly the resume parameter a re-request needs.
func (d *Decoder) LastApplied() int { return d.next - 1 }

// NumBatches returns the announced batch count (0 before Attach).
func (d *Decoder) NumBatches() int { return d.nBatches }

// Rect returns the stream's ROI.
func (d *Decoder) Rect() geom.Rect { return d.rect }

// TargetE returns the LOD the full stream decodes to.
func (d *Decoder) TargetE() float64 { return d.targetE }

// LastE returns the LOD of the last applied batch — the LOD Mesh() is
// exact at. Zero before the first batch.
func (d *Decoder) LastE() float64 { return d.lastE }

// BytesRead returns the bytes consumed so far, summed across Attaches.
func (d *Decoder) BytesRead() int64 { return d.bytesRead }

// BytesToFirstFrame returns the bytes consumed when the first renderable
// mesh was complete (0 until then).
func (d *Decoder) BytesToFirstFrame() int64 { return d.bytesAt1 }

// Next reads and applies one batch, returning its index and LOD.
// io.EOF signals a completed stream (all batches applied); ErrTruncated
// a resumable cut; ErrCorrupt an unrecoverable encoding violation.
func (d *Decoder) Next() (int, float64, error) {
	if d.sticky != nil {
		return 0, 0, d.sticky
	}
	if !d.started {
		return 0, 0, fmt.Errorf("stream: Next before Attach")
	}
	if d.Done() {
		return 0, 0, io.EOF
	}
	length, err := d.uvarint("frame length")
	if err != nil {
		return 0, 0, err
	}
	if length > maxFramePayload {
		return 0, 0, d.poison(fmt.Errorf("stream: frame %d declares %d bytes: %w", d.next, length, ErrCorrupt))
	}
	payload := make([]byte, length)
	if err := d.read(payload); err != nil {
		return 0, 0, fmt.Errorf("stream: frame %d: %w", d.next, ErrTruncated)
	}
	e, err := d.applyBatch(payload)
	if err != nil {
		return 0, 0, d.poison(err)
	}
	d.next++
	d.lastE = e
	if d.next == 1 {
		d.bytesAt1 = d.bytesRead
	}
	return d.next - 1, e, nil
}

// Mesh returns the decoded mesh at the last applied batch — a fresh
// Result in the canonical query-answer shape, safe to retain.
func (d *Decoder) Mesh() *dm.Result { return d.state.result() }

// readIDSet reads an ascending ID set (first absolute, then strictly
// positive deltas).
func readIDSet(r *wire.Reader, what string) []int64 {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	ids := make([]int64, 0, n)
	prev := int64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		d := r.Uvarint(what)
		if (i > 0 && d == 0) || d > math.MaxInt64 || prev > math.MaxInt64-int64(d) {
			r.Failf("non-ascending or overflowing %s", what)
			break
		}
		prev += int64(d)
		ids = append(ids, prev)
	}
	return ids
}

// readPairSet reads ascending (a, b) pairs with a < b.
func readPairSet(r *wire.Reader, what string) [][2]int64 {
	n := r.Count(what, 2)
	if n == 0 {
		return nil
	}
	ps := make([][2]int64, 0, n)
	prevA, prevB := int64(0), int64(-1)
	for i := 0; i < n && r.Err() == nil; i++ {
		da, db := r.Uvarint(what), r.Uvarint(what)
		if r.Err() != nil {
			break
		}
		if da > math.MaxInt64 || prevA > math.MaxInt64-int64(da) || db == 0 || db > math.MaxInt64 {
			r.Failf("bad pair in %s", what)
			break
		}
		a := prevA + int64(da)
		if a > math.MaxInt64-int64(db) {
			r.Failf("overflowing %s", what)
			break
		}
		b := a + int64(db)
		if i > 0 && da == 0 && b <= prevB {
			r.Failf("non-ascending %s", what)
			break
		}
		ps = append(ps, [2]int64{a, b})
		prevA, prevB = a, b
	}
	return ps
}

// readTriSet reads ascending canonical (A, B, C) triangles with A < B < C.
func readTriSet(r *wire.Reader, what string) []geom.Triangle {
	n := r.Count(what, 3)
	if n == 0 {
		return nil
	}
	ts := make([]geom.Triangle, 0, n)
	prevA, prevB, prevC := int64(0), int64(-1), int64(-1)
	for i := 0; i < n && r.Err() == nil; i++ {
		da, db, dc := r.Uvarint(what), r.Uvarint(what), r.Uvarint(what)
		if r.Err() != nil {
			break
		}
		if da > math.MaxInt64 || prevA > math.MaxInt64-int64(da) ||
			db == 0 || db > math.MaxInt64 || dc == 0 || dc > math.MaxInt64 {
			r.Failf("bad triangle in %s", what)
			break
		}
		a := prevA + int64(da)
		if a > math.MaxInt64-int64(db) {
			r.Failf("overflowing %s", what)
			break
		}
		b := a + int64(db)
		if b > math.MaxInt64-int64(dc) {
			r.Failf("overflowing %s", what)
			break
		}
		c := b + int64(dc)
		if i > 0 && da == 0 && (b < prevB || (b == prevB && c <= prevC)) {
			r.Failf("non-ascending %s", what)
			break
		}
		ts = append(ts, geom.Triangle{A: a, B: b, C: c})
		prevA, prevB, prevC = a, b, c
	}
	return ts
}

// applyBatch parses one frame payload and applies it to the state,
// returning the batch's LOD. Membership violations (removing what was
// never sent, adding what exists) are corruption: the two codec ends
// have diverged and no resume can fix that. Additions are checked
// against the state before the batch's removals, so a batch cannot
// remove and re-add (move) an element, which encodeBatch never emits.
func (d *Decoder) applyBatch(payload []byte) (float64, error) {
	r := wire.NewReader(payload, "stream", ErrCorrupt)
	idx := r.Uvarint("batch index")
	e := r.F64("batch e")
	switch {
	case r.Err() != nil:
	case idx != uint64(d.next):
		r.Failf("batch %d arrived, expected %d", idx, d.next)
	case math.IsNaN(e) || math.IsInf(e, 0):
		r.Failf("batch %d E is %g", idx, e)
	case d.next > 0 && e >= d.lastE:
		r.Failf("batch %d does not refine (E %g after %g)", idx, e, d.lastE)
	case int(idx) == d.nBatches-1 && math.Float64bits(e) != math.Float64bits(d.targetE):
		r.Failf("final batch E %g, header target %g", e, d.targetE)
	}

	remTris := readTriSet(&r, "removed triangles")
	remEdges := readPairSet(&r, "removed edges")
	remVerts := readIDSet(&r, "removed vertices")

	nAdd := r.Count("added vertices", 5)
	type addedVert struct {
		id int64
		p  geom.Point3
	}
	adds := make([]addedVert, 0, nAdd)
	prevID := int64(0)
	for i := 0; i < nAdd && r.Err() == nil; i++ {
		dID := r.Uvarint("added vertex id")
		if (i > 0 && dID == 0) || dID > math.MaxInt64 || prevID > math.MaxInt64-int64(dID) {
			r.Failf("non-ascending added vertex ids")
			break
		}
		prevID += int64(dID)
		flags := r.Byte("vertex flags")
		if flags&^0x07 != 0 {
			r.Failf("reserved vertex flag bits")
			break
		}
		var c [3]float64
		for ci := range c {
			if flags&(1<<ci) != 0 {
				c[ci] = r.Dyadic("coordinate")
			} else {
				c[ci] = r.NonDyadicF64("coordinate")
			}
		}
		adds = append(adds, addedVert{id: prevID, p: geom.Point3{X: c[0], Y: c[1], Z: c[2]}})
	}

	addEdges := readPairSet(&r, "added edges")
	addTris := readTriSet(&r, "added triangles")
	if err := r.Finish(); err != nil {
		return 0, err
	}

	for _, av := range adds {
		if _, ok := d.state.verts[av.id]; ok {
			return 0, fmt.Errorf("stream: batch %d re-adds vertex %d: %w", idx, av.id, ErrCorrupt)
		}
	}
	for _, p := range addEdges {
		if _, ok := d.state.edges[p]; ok {
			return 0, fmt.Errorf("stream: batch %d re-adds edge (%d,%d): %w", idx, p[0], p[1], ErrCorrupt)
		}
	}
	for _, t := range addTris {
		if _, ok := d.state.tris[t]; ok {
			return 0, fmt.Errorf("stream: batch %d re-adds triangle (%d,%d,%d): %w", idx, t.A, t.B, t.C, ErrCorrupt)
		}
	}
	for _, t := range remTris {
		if _, ok := d.state.tris[t]; !ok {
			return 0, fmt.Errorf("stream: batch %d removes unknown triangle (%d,%d,%d): %w", idx, t.A, t.B, t.C, ErrCorrupt)
		}
		delete(d.state.tris, t)
	}
	for _, p := range remEdges {
		if _, ok := d.state.edges[p]; !ok {
			return 0, fmt.Errorf("stream: batch %d removes unknown edge (%d,%d): %w", idx, p[0], p[1], ErrCorrupt)
		}
		delete(d.state.edges, p)
	}
	for _, id := range remVerts {
		if _, ok := d.state.verts[id]; !ok {
			return 0, fmt.Errorf("stream: batch %d removes unknown vertex %d: %w", idx, id, ErrCorrupt)
		}
		delete(d.state.verts, id)
	}
	for _, av := range adds {
		d.state.verts[av.id] = av.p
	}
	for _, p := range addEdges {
		for _, id := range p {
			if _, ok := d.state.verts[id]; !ok {
				return 0, fmt.Errorf("stream: batch %d edge references untransmitted vertex %d: %w", idx, id, ErrCorrupt)
			}
		}
		d.state.edges[p] = struct{}{}
	}
	for _, t := range addTris {
		for _, id := range [3]int64{t.A, t.B, t.C} {
			if _, ok := d.state.verts[id]; !ok {
				return 0, fmt.Errorf("stream: batch %d triangle references untransmitted vertex %d: %w", idx, id, ErrCorrupt)
			}
		}
		d.state.tris[t] = struct{}{}
	}
	return e, nil
}
