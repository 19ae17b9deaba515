package dm

import (
	"fmt"
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// TilePatch is a self-contained materialization of one cache tile: the
// answer to the uniform query Q(Rect, E) restricted to the tile footprint,
// stored in a form that lets StitchTiles assemble the answer to any ROI
// covered by a set of patches at the same E without touching the store
// again. It holds the live nodes (with their connection lists), the
// intra-tile mesh (edges and triangles whose endpoints all lie inside the
// tile), and the out-going connection pairs whose far endpoint is not a
// live node of this tile — the stitching seams.
//
// A patch is immutable once materialized; it may be shared by any number
// of concurrent readers.
type TilePatch struct {
	// Rect is the tile footprint in the (x, y) plane (boundary inclusive,
	// like every range query in the store).
	Rect geom.Rect
	// E is the discrete LOD the patch is materialized at.
	E float64
	// Nodes holds every node whose position lies inside Rect and whose
	// LOD interval contains E — exactly the live set of Q(Rect, E).
	Nodes map[int64]*Node

	// edges and tris are the intra-tile mesh: connection pairs (and the
	// 3-cliques they close) with both endpoints in Nodes. Sorted for
	// deterministic patch content. tris travels on the tile wire, but
	// StitchTiles derives triangles from edges and does not read it.
	edges [][2]int64
	tris  []geom.Triangle
	// outPairs are connection pairs (a, c) with a in Nodes and c not: c
	// lies in a neighboring tile, or is not live at E. Stitching resolves
	// them against the combined live set.
	outPairs [][2]int64

	// FetchedRecords is how many node records the materializing range
	// query read (the I/O the patch cost, in records).
	FetchedRecords int
}

// Bytes estimates the resident size of the patch in bytes — the unit the
// tile cache budgets. The estimate is deterministic and intentionally
// simple: node header + connection IDs + mesh slices.
func (tp *TilePatch) Bytes() int {
	const nodeHeader = 96 // pm.Node fields + map overhead, rounded
	b := 0
	for _, n := range tp.Nodes {
		b += nodeHeader + 8*len(n.Conn)
	}
	b += 16 * len(tp.edges)
	b += 24 * len(tp.tris)
	b += 16 * len(tp.outPairs)
	return b
}

// NumEdges returns the intra-tile edge count (diagnostics).
func (tp *TilePatch) NumEdges() int { return len(tp.edges) }

// NumOutPairs returns the seam pair count (diagnostics).
func (tp *TilePatch) NumOutPairs() int { return len(tp.outPairs) }

// MaterializeTile answers Q(r, e) like ViewpointIndependent but returns
// the result as a TilePatch: live nodes plus the intra-tile mesh and the
// out-going connection pairs needed to stitch the patch against its
// neighbors. One range query, same I/O as the direct uniform query over r.
func (s *Store) MaterializeTile(r geom.Rect, e float64) (*TilePatch, error) {
	s.tr.Begin(obs.PhaseMaterialize)
	defer s.tr.End()
	fetchE := e
	if fetchE > s.maxE {
		fetchE = s.maxE
	}
	f := s.newFetcher()
	nf, err := f.fetchBox(geom.BoxFromRect(r, fetchE, fetchE))
	if err != nil {
		return nil, err
	}
	fetched := f.fetched()
	s.tr.Begin(obs.PhaseTriangulate)
	defer s.tr.End()
	live := make(map[int64]*Node, len(fetched))
	for id, n := range fetched {
		if n.Interval().Contains(e) {
			live[id] = n
		}
	}
	tp := &TilePatch{Rect: r, E: e, Nodes: live, FetchedRecords: nf}
	for id, n := range live {
		for _, c := range n.Conn {
			if _, ok := live[c]; ok {
				if c > id { // count each intra pair once
					tp.edges = append(tp.edges, [2]int64{id, c})
				}
			} else {
				tp.outPairs = append(tp.outPairs, [2]int64{id, c})
			}
		}
	}
	slices.SortFunc(tp.edges, geom.CompareEdges)
	slices.SortFunc(tp.outPairs, geom.CompareEdges)
	tp.tris = sortedEdgeCliques(tp.edges)
	return tp, nil
}

// StitchTiles assembles the answer to Q(r, e) from tile patches whose
// footprints together cover r, all materialized at the same e. The result
// is exactly equal (as vertex/edge/triangle sets) to ViewpointIndependent
// (r, e) on the same store, with zero store I/O.
//
// The stitch is one flat pass over the patches' connection pairs: nodes
// are clipped to r; interior tiles (footprint fully inside r) contribute
// their intra-tile edges wholesale, boundary tiles only the edges whose
// endpoints both survived the clip, and every tile's out-going pairs
// resolve against the combined live set. The candidates, sorted and
// deduplicated, are the edge set of the direct query over r, and the
// triangles are its 3-cliques — the direct query's own rule
// (trianglesFromAdjacency), so no tile's triangle list is consulted.
// The result's edges and triangles come out sorted.
//
// The input patches are only read, never modified: decoded or cached
// patches can be stitched by any number of concurrent queries.
func StitchTiles(r geom.Rect, e float64, tiles []*TilePatch) (*Result, error) {
	return StitchTilesTraced(r, e, tiles, nil)
}

// StitchTilesTraced is StitchTiles emitting phase spans on tr (which may
// be nil): the whole stitch under one stitch span, with the seam
// resolution, the edge sort and the clique listing itemized as a
// seam-closure child.
func StitchTilesTraced(r geom.Rect, e float64, tiles []*TilePatch, tr *obs.Trace) (*Result, error) {
	tr.Begin(obs.PhaseStitch)
	defer tr.End()
	// Count the clipped nodes first: a cover can hold several times the
	// ROI's nodes, and the count sizes the vertex map and edge list.
	nLive := 0
	for _, tp := range tiles {
		if tp == nil {
			return nil, fmt.Errorf("dm: stitch: nil tile patch")
		}
		if tp.E != e {
			return nil, fmt.Errorf("dm: stitch: tile %v materialized at LOD %g, want %g", tp.Rect, tp.E, e)
		}
		for _, n := range tp.Nodes {
			if r.ContainsPoint(n.Pos.XY()) {
				nLive++
			}
		}
	}
	res := &Result{Vertices: make(map[int64]geom.Point3, nLive), Strips: len(tiles)}
	for _, tp := range tiles {
		for id, n := range tp.Nodes {
			if r.ContainsPoint(n.Pos.XY()) { // clip to the true ROI
				res.Vertices[id] = n.Pos
			}
		}
	}
	live := func(id int64) bool {
		_, ok := res.Vertices[id]
		return ok
	}

	edges := make([][2]int64, 0, 3*nLive) // a triangulation has ~3 edges per vertex
	for _, tp := range tiles {
		if r.ContainsRect(tp.Rect) {
			// Interior tile: every node survived the clip.
			edges = append(edges, tp.edges...)
			continue
		}
		for _, ed := range tp.edges {
			if live(ed[0]) && live(ed[1]) {
				edges = append(edges, ed)
			}
		}
	}
	// Seams: out-going pairs of every tile, resolved against the combined
	// live set. A pair (a, c) with a > c is skipped unread: the tile
	// holding c records (c, a) too, as an intra edge or an out-going
	// pair of its own. Pairs are sorted by owner, so a clipped owner's
	// whole run is skipped with one lookup.
	tr.Begin(obs.PhaseSeam)
	for _, tp := range tiles {
		ps := tp.outPairs
		for i := 0; i < len(ps); {
			a := ps[i][0]
			j := i + 1
			for j < len(ps) && ps[j][0] == a {
				j++
			}
			if live(a) {
				for _, pr := range ps[i:j] {
					if pr[1] > a && live(pr[1]) {
						edges = append(edges, pr)
					}
				}
			}
			i = j
		}
	}
	slices.SortFunc(edges, geom.CompareEdges)
	res.Edges = slices.Compact(edges)
	res.Triangles = sortedEdgeCliques(res.Edges)
	tr.End()
	return res, nil
}

// sortedEdgeCliques lists the 3-cliques of the graph whose edges are es,
// which must be sorted (geom.CompareEdges), duplicate-free and have
// es[i][0] < es[i][1]. Each vertex's higher neighbours then form one
// ascending run, and every triangle u < v < w is found once, at its
// lowest edge (u, v), by merge-intersecting u's run past v with v's run.
// The triangles come out canonical and sorted.
func sortedEdgeCliques(es [][2]int64) []geom.Triangle {
	var tris []geom.Triangle
	for i := 0; i < len(es); {
		u := es[i][0]
		end := i + 1
		for end < len(es) && es[end][0] == u {
			end++
		}
		for ; i < end; i++ {
			v := es[i][1]
			if i+1 == end {
				continue // v is u's highest neighbour: no w > v to close
			}
			// v > u, so v's run starts past u's: find it by bisection.
			lo, hi := end, len(es)
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if es[m][0] < v {
					lo = m + 1
				} else {
					hi = m
				}
			}
			j, k := i+1, lo
			for j < end && k < len(es) && es[k][0] == v {
				switch {
				case es[j][1] < es[k][1]:
					j++
				case es[j][1] > es[k][1]:
					k++
				default:
					if tris == nil { // a triangulation has ~2 faces per 3 edges
						tris = make([]geom.Triangle, 0, 2*len(es)/3)
					}
					tris = append(tris, geom.Triangle{A: u, B: v, C: es[j][1]})
					j++
					k++
				}
			}
		}
	}
	return tris
}
