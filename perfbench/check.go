package main

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
)

// matcher checks answers against oracles in dm.CanonicalMesh form. It
// walks the answer in canonical order and compares word by word with
// the oracle bytes instead of serializing the answer, so a check does
// not allocate once the scratch slices have grown, and the checking
// does not show in the benchmark's allocation metric. One matcher per
// client: it is not safe for concurrent use.
type matcher struct {
	ids   []int64
	edges [][2]int64
	tris  []geom.Triangle
}

// equal reports whether dm.CanonicalMesh(res) would equal want.
func (m *matcher) equal(res *dm.Result, want []byte) bool {
	pos := 0
	next := func(v uint64) bool {
		if pos+8 > len(want) || binary.LittleEndian.Uint64(want[pos:]) != v {
			return false
		}
		pos += 8
		return true
	}

	m.ids = m.ids[:0]
	for id := range res.Vertices {
		m.ids = append(m.ids, id)
	}
	slices.Sort(m.ids)
	if !next(uint64(len(m.ids))) {
		return false
	}
	for _, id := range m.ids {
		p := res.Vertices[id]
		if !next(uint64(id)) || !next(math.Float64bits(p.X)) ||
			!next(math.Float64bits(p.Y)) || !next(math.Float64bits(p.Z)) {
			return false
		}
	}

	m.edges = m.edges[:0]
	for _, e := range res.Edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		m.edges = append(m.edges, e)
	}
	slices.SortFunc(m.edges, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	if !next(uint64(len(m.edges))) {
		return false
	}
	for _, e := range m.edges {
		if !next(uint64(e[0])) || !next(uint64(e[1])) {
			return false
		}
	}

	m.tris = m.tris[:0]
	for _, t := range res.Triangles {
		m.tris = append(m.tris, t.Canon())
	}
	slices.SortFunc(m.tris, func(a, b geom.Triangle) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		if c := cmp.Compare(a.B, b.B); c != 0 {
			return c
		}
		return cmp.Compare(a.C, b.C)
	})
	if !next(uint64(len(m.tris))) {
		return false
	}
	for _, t := range m.tris {
		if !next(uint64(t.A)) || !next(uint64(t.B)) || !next(uint64(t.C)) {
			return false
		}
	}
	return pos == len(want)
}
