package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dmesh/internal/wire"
)

// ErrCorrupt is the sentinel wrapped by every trace-wire decode failure,
// mirroring the storage layer's corruption discipline: a malformed or
// truncated wire trace is rejected with a descriptive error, never a
// panic. (The obs package cannot import the storage sentinel without a
// cycle, so cross-layer callers match on their own layer's sentinel.)
var ErrCorrupt = errors.New("corrupt trace wire")

// Trace wire format (TraceWire, version 1) — the compact deterministic
// binary encoding a shard attaches to its responses so a router can
// splice the shard's phase spans into its own trace:
//
//	magic   "DMTW" (4 bytes)
//	version uvarint (currently 1)
//	count   uvarint (number of spans)
//	per span, in Begin order (parents strictly before children):
//	  phase    uvarint  (< NumPhases)
//	  parent   uvarint  (0 = root, else 1 + parent index; parent < own index)
//	  start    uvarint  (nanoseconds from the trace epoch)
//	  dur      uvarint  (nanoseconds)
//	  childDur uvarint  (nanoseconds, <= dur)
//	  da       uvarint  (inclusive disk accesses)
//	  childDA  uvarint  (<= da)
//
// Every field is a uvarint after the fixed magic, so the encoding of a
// given trace is unique — byte equality is trace equality.
const (
	traceWireMagic   = "DMTW"
	traceWireVersion = 1
)

// EncodeWire serializes the trace's recorded spans in the TraceWire
// format. All spans must be closed (the encoding carries final DA and
// duration figures); encoding an open trace returns an error instead of
// lying about costs still accruing. A nil or empty trace encodes to a
// valid zero-span wire.
func (t *Trace) EncodeWire() ([]byte, error) {
	var spans []Span
	if t != nil {
		if len(t.stack) != 0 {
			return nil, fmt.Errorf("obs: encoding trace with %d open spans", len(t.stack))
		}
		spans = t.spans
	}
	buf := make([]byte, 0, len(traceWireMagic)+2+len(spans)*12)
	buf = append(buf, traceWireMagic...)
	buf = binary.AppendUvarint(buf, traceWireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for i := range spans {
		sp := &spans[i]
		buf = binary.AppendUvarint(buf, uint64(sp.Phase))
		buf = binary.AppendUvarint(buf, uint64(sp.Parent+1))
		buf = binary.AppendUvarint(buf, uint64(sp.Start))
		buf = binary.AppendUvarint(buf, uint64(sp.Dur))
		buf = binary.AppendUvarint(buf, uint64(sp.childDur))
		buf = binary.AppendUvarint(buf, sp.DA)
		buf = binary.AppendUvarint(buf, sp.childDA)
	}
	return buf, nil
}

// WireTrace is a decoded trace wire: the remote spans with their
// hierarchy, costs, and timings, ready to splice into a local trace.
type WireTrace struct {
	Spans []Span
}

// TotalDA sums the root spans' inclusive disk accesses — the remote
// trace's view of what the traced request cost. Zero on nil.
func (wt *WireTrace) TotalDA() uint64 {
	if wt == nil {
		return 0
	}
	var total uint64
	for i := range wt.Spans {
		if wt.Spans[i].Parent < 0 {
			total += wt.Spans[i].DA
		}
	}
	return total
}

// rootDur sums the root spans' inclusive durations.
func (wt *WireTrace) rootDur() time.Duration {
	var total time.Duration
	for i := range wt.Spans {
		if wt.Spans[i].Parent < 0 {
			total += wt.Spans[i].Dur
		}
	}
	return total
}

// DecodeTraceWire parses a TraceWire buffer. It never panics and is
// canonical: any input EncodeWire would not emit — bad magic, unknown
// version, a non-minimal varint, phase out of range, forward or self
// parent references, child costs exceeding the span's own, truncation
// at any byte, or trailing garbage — returns an error wrapping
// ErrCorrupt.
func DecodeTraceWire(buf []byte) (*WireTrace, error) {
	r := wire.NewReader(buf, "obs: trace wire", ErrCorrupt)
	r.Magic(traceWireMagic)
	if v := r.Uvarint("version"); r.Err() == nil && v != traceWireVersion {
		r.Failf("unsupported version %d", v)
	}
	spans := make([]Span, r.Count("span", 7))
	for i := range spans {
		phase, parent := r.Uvarint("phase"), r.Uvarint("parent")
		start, dur, childDur := r.Uvarint("start"), r.Uvarint("dur"), r.Uvarint("child dur")
		da, childDA := r.Uvarint("da"), r.Uvarint("child da")
		switch {
		case phase >= uint64(NumPhases):
			r.Failf("span %d: phase %d out of range", i, phase)
		case parent > uint64(i):
			r.Failf("span %d: parent %d not before it", i, int64(parent)-1)
		case childDur > dur:
			r.Failf("span %d: children claim %dns of a %dns span", i, childDur, dur)
		case childDA > da:
			r.Failf("span %d: children claim %d DA of a %d-DA span", i, childDA, da)
		}
		if r.Err() != nil {
			break
		}
		spans[i] = Span{
			Phase:    Phase(phase),
			Parent:   int32(parent) - 1,
			Start:    time.Duration(start),
			Dur:      time.Duration(dur),
			DA:       da,
			childDA:  childDA,
			childDur: time.Duration(childDur),
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &WireTrace{Spans: spans}, nil
}

// SpliceRemote appends one closed span of phase p — a cross-process hop
// that started at start (trace-epoch offset, see Now) and took dur — as
// a child of the innermost open span, attaching the remote trace's spans
// beneath it. da is the hop's inclusive disk-access cost as the remote
// side reported it out of band (the X-DM-DA header); it is charged up
// the open ancestor chain exactly as AddDA would charge it, so a
// charge-based trace's CheckTotal equals the sum of the hop DAs plus
// whatever the local side sampled.
//
// When wt carries spans, they become the hop's children (parents
// remapped, starts rebased onto the hop's start): the hop's self DA is
// then da minus the remote roots' total — zero exactly when the shard's
// trace fully accounts for its own header, which is the cross-hop
// invariant CheckTotal extends across the wire. A nil or empty wt leaves
// the hop a leaf carrying all of da itself. No-op on a nil trace or when
// no span is open, matching the other nil-receiver paths.
func (t *Trace) SpliceRemote(p Phase, start, dur time.Duration, da uint64, wt *WireTrace) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	hop := Span{
		Phase:  p,
		Parent: parent,
		Start:  start,
		Dur:    dur,
		DA:     da,
	}
	if wt != nil {
		hop.childDA = wt.TotalDA()
		hop.childDur = wt.rootDur()
	}
	t.spans = append(t.spans, hop)
	hopIdx := int32(len(t.spans) - 1)
	if wt != nil {
		base := int32(len(t.spans))
		for i := range wt.Spans {
			sp := wt.Spans[i]
			if sp.Parent < 0 {
				sp.Parent = hopIdx
			} else {
				sp.Parent += base
			}
			sp.Start += start
			t.spans = append(t.spans, sp)
		}
	}
	// Roll the hop into its parent the way End would: the parent's
	// children now include the hop (inclusive of the remote spans), and
	// the whole hop DA is charged — the local sampler never saw it.
	par := &t.spans[parent]
	par.childDA += da
	par.childDur += dur
	par.charged += da
}
