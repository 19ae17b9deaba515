package dm

import (
	"encoding/binary"
	"math"
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// Wire format for TilePatch — the unit a cluster shard ships to the
// router, which stitches the decoded patches with StitchTiles exactly as
// it would stitch locally materialized ones.
//
// The encoding is deterministic (nodes sorted by ID; edges, triangles and
// out-pairs are already kept sorted by MaterializeTile), so the same
// patch always serializes to the same bytes: responses are cachable and
// byte-comparable across shards. Layout (little endian):
//
//	magic "DMTP", version uvarint (1)
//	Rect (4 x float64 bits), E (float64 bits), FetchedRecords uvarint
//	node count uvarint, then per node (sorted by ID):
//	  ID uvarint; Pos x,y,z; ERaw; ELow; EHigh (float64 bits)
//	  Parent, Child1, Child2, Wing1, Wing2 (zigzag varints; pm.None = -1)
//	  MBR (4 x float64 bits)
//	  conn count uvarint, conn IDs as zigzag deltas vs the previous entry
//	edge count uvarint, then (a, b) zigzag varint pairs
//	triangle count uvarint, then (A, B, C) zigzag varint triples
//	out-pair count uvarint, then (a, c) zigzag varint pairs
//
// Floats travel as raw IEEE-754 bits, so every value — +Inf EHigh
// included — round-trips bit-exactly.
const (
	tileWireMagic   = "DMTP"
	tileWireVersion = 1
)

// EncodeTilePatch serializes tp into the deterministic binary wire form
// decodable with DecodeTilePatch.
func EncodeTilePatch(tp *TilePatch) []byte {
	buf := make([]byte, 0, 64+len(tp.Nodes)*96+16*len(tp.edges)+24*len(tp.tris)+16*len(tp.outPairs))
	buf = append(buf, tileWireMagic...)
	buf = binary.AppendUvarint(buf, tileWireVersion)
	buf = wire.AppendF64(buf, tp.Rect.MinX, tp.Rect.MinY, tp.Rect.MaxX, tp.Rect.MaxY, tp.E)
	buf = binary.AppendUvarint(buf, uint64(tp.FetchedRecords))

	ids := make([]int64, 0, len(tp.Nodes))
	for id := range tp.Nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		n := tp.Nodes[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = wire.AppendF64(buf, n.Pos.X, n.Pos.Y, n.Pos.Z, n.ERaw, n.ELow, n.EHigh)
		for _, ref := range [...]int64{n.Parent, n.Child1, n.Child2, n.Wing1, n.Wing2} {
			buf = binary.AppendVarint(buf, ref)
		}
		buf = wire.AppendF64(buf, n.MBR.MinX, n.MBR.MinY, n.MBR.MaxX, n.MBR.MaxY)
		buf = binary.AppendUvarint(buf, uint64(len(n.Conn)))
		prev := int64(0)
		for _, c := range n.Conn { // sorted ascending: small positive deltas
			buf = binary.AppendVarint(buf, c-prev)
			prev = c
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(tp.edges)))
	for _, e := range tp.edges {
		buf = binary.AppendVarint(buf, e[0])
		buf = binary.AppendVarint(buf, e[1])
	}
	buf = binary.AppendUvarint(buf, uint64(len(tp.tris)))
	for _, t := range tp.tris {
		buf = binary.AppendVarint(buf, t.A)
		buf = binary.AppendVarint(buf, t.B)
		buf = binary.AppendVarint(buf, t.C)
	}
	buf = binary.AppendUvarint(buf, uint64(len(tp.outPairs)))
	for _, p := range tp.outPairs {
		buf = binary.AppendVarint(buf, p[0])
		buf = binary.AppendVarint(buf, p[1])
	}
	return buf
}

// DecodeTilePatch parses a patch encoded by EncodeTilePatch. The decode
// is panic-free on arbitrary input and canonical: it accepts exactly
// the bytes EncodeTilePatch emits, and anything else surfaces as an
// error wrapping ErrCorrupt.
func DecodeTilePatch(b []byte) (*TilePatch, error) {
	r := wire.NewReader(b, "dm: tile patch wire", ErrCorrupt)
	r.Magic(tileWireMagic)
	if v := r.Uvarint("version"); r.Err() == nil && v != tileWireVersion {
		r.Failf("unsupported version %d", v)
	}
	tp := &TilePatch{}
	tp.Rect.MinX, tp.Rect.MinY = r.F64("rect"), r.F64("rect")
	tp.Rect.MaxX, tp.Rect.MaxY = r.F64("rect"), r.F64("rect")
	tp.E = r.F64("e")
	tp.FetchedRecords = int(r.Uvarint("fetched"))

	nNodes := r.Count("nodes", 2)
	tp.Nodes = make(map[int64]*Node, nNodes)
	prevID := int64(-1)
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		// The encoder writes nodes in ascending ID order; any other order
		// would be a second spelling of the same patch.
		u := r.Uvarint("node id")
		if u > math.MaxInt64 || int64(u) <= prevID {
			r.Failf("node id %d out of ascending order", u)
		}
		n := &Node{}
		n.ID = int64(u)
		prevID = n.ID
		n.Pos.X, n.Pos.Y, n.Pos.Z = r.F64("pos"), r.F64("pos"), r.F64("pos")
		n.ERaw, n.ELow, n.EHigh = r.F64("eraw"), r.F64("elow"), r.F64("ehigh")
		n.Parent = r.Varint("parent")
		n.Child1, n.Child2 = r.Varint("child"), r.Varint("child")
		n.Wing1, n.Wing2 = r.Varint("wing"), r.Varint("wing")
		n.MBR.MinX, n.MBR.MinY = r.F64("mbr"), r.F64("mbr")
		n.MBR.MaxX, n.MBR.MaxY = r.F64("mbr"), r.F64("mbr")
		if nConn := r.Count("conn", 1); nConn > 0 {
			n.Conn = r.Deltas(make([]int64, 0, nConn), 0, nConn, "conn delta")
		}
		tp.Nodes[n.ID] = n
	}

	if nEdges := r.Count("edges", 2); nEdges > 0 {
		tp.edges = make([][2]int64, 0, nEdges)
		for i := 0; i < nEdges && r.Err() == nil; i++ {
			tp.edges = append(tp.edges, [2]int64{r.Varint("edge"), r.Varint("edge")})
		}
	}
	if nTris := r.Count("tris", 3); nTris > 0 {
		tp.tris = make([]geom.Triangle, 0, nTris)
		for i := 0; i < nTris && r.Err() == nil; i++ {
			tp.tris = append(tp.tris, geom.Triangle{
				A: r.Varint("tri"), B: r.Varint("tri"), C: r.Varint("tri"),
			})
		}
	}
	if nOut := r.Count("outpairs", 2); nOut > 0 {
		tp.outPairs = make([][2]int64, 0, nOut)
		for i := 0; i < nOut && r.Err() == nil; i++ {
			tp.outPairs = append(tp.outPairs, [2]int64{r.Varint("outpair"), r.Varint("outpair")})
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return tp, nil
}
