package cluster

import (
	"bytes"
	"container/list"
	"sync"

	"dmesh/internal/dm"
	"dmesh/internal/tilecache"
)

// patchMemo keeps the last decoded patch per tile key together with the
// wire bytes it was decoded from, so a hot tile is decoded once per
// router rather than once per query. The memo key is the body itself:
// the tile wire is canonical (one encoding per patch, DESIGN.md §5.2),
// so a body equal to the memoized bytes decodes to the memoized patch,
// and a shard that starts serving different bytes for a key is decoded
// afresh. No generation or validator protocol is needed, and a stale
// patch cannot be served.
//
// Entries are charged TilePatch.Bytes() plus the body length and kept
// least-recently-used first out under maxBytes. Decoded patches are
// shared by every query that hits them; StitchTiles only reads its
// inputs.
type patchMemo struct {
	maxBytes int

	mu    sync.Mutex
	lru   *list.List // of *memoEntry, most recently used at the front
	byKey map[tilecache.Key]*list.Element
	bytes int
}

type memoEntry struct {
	key  tilecache.Key
	wire []byte
	tp   *dm.TilePatch
	size int
}

func newPatchMemo(maxBytes int) *patchMemo {
	return &patchMemo{maxBytes: maxBytes, lru: list.New(), byKey: make(map[tilecache.Key]*list.Element)}
}

// get returns the memoized patch for k when body equals the bytes it was
// decoded from.
func (m *patchMemo) get(k tilecache.Key, body []byte) (*dm.TilePatch, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.byKey[k]
	if el == nil {
		return nil, false
	}
	e := el.Value.(*memoEntry)
	if !bytes.Equal(e.wire, body) {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return e.tp, true
}

// put memoizes tp, successfully decoded from body, as k's entry,
// replacing any older one, and evicts least-recently-used entries until
// the memo fits its budget. A patch larger than the whole budget is not
// retained, and neither is k's older entry.
func (m *patchMemo) put(k tilecache.Key, body []byte, tp *dm.TilePatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.byKey[k]; el != nil {
		m.remove(el)
	}
	size := tp.Bytes() + len(body)
	if size > m.maxBytes {
		return
	}
	for m.bytes+size > m.maxBytes {
		m.remove(m.lru.Back())
	}
	m.byKey[k] = m.lru.PushFront(&memoEntry{key: k, wire: body, tp: tp, size: size})
	m.bytes += size
}

func (m *patchMemo) remove(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	delete(m.byKey, e.key)
	m.bytes -= e.size
}

// size returns the bytes currently charged to the memo.
func (m *patchMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}
