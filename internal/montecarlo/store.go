package montecarlo

import (
	"container/list"
	"sync"
)

// The normal-stream store: SharedStreamCtx's normals on stream (0, seed)
// depend only on (seed, npath), and rng.(*Stream).NormalICDF is
// element-sequential, so the first n normals of a longer stream are the
// n-normal stream. One process-wide store keeps the streams it generated,
// keyed by seed, and later requests read them instead of drawing them
// again (the paper's stream mode, Sec. IV-D1, across requests as well as
// within one).
//
// A stored slice is never written again: readers use it outside the lock,
// and an evicted slice lives on until its last reader finishes.

// streamBudget bounds the bytes the store holds. One entry holds at most
// a quarter of the budget (maxPaths); a longer request generates chunk by
// chunk and stores nothing.
const streamBudget = 16 << 20

// entryOverhead is the bytes charged per entry besides its normals: an
// estimate of its map slot, list element and header, so that many tiny
// streams cannot hold more memory than the budget says.
const entryOverhead = 128

// streams is the store SharedStreamCtx reads. It can be process-wide, like
// a sync.Pool, because no result depends on what it holds.
var streams = newStreamStore(streamBudget)

type streamStore struct {
	budget int // bytes

	mu     sync.Mutex
	bytes  int                      // charged for the entries below
	lru    list.List                // of *storedStream, most recently used first
	bySeed map[uint64]*list.Element // into lru
}

type storedStream struct {
	seed uint64
	z    []float64
}

func newStreamStore(budget int) *streamStore {
	return &streamStore{budget: budget, bySeed: map[uint64]*list.Element{}}
}

// maxPaths is the longest stream the store keeps.
func (st *streamStore) maxPaths() int { return st.budget / 4 / 8 }

// get returns the first npath normals of stream (0, seed), or nil if the
// store holds fewer of them. The result must not be written.
func (st *streamStore) get(seed uint64, npath int) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.bySeed[seed]
	if !ok {
		return nil
	}
	z := e.Value.(*storedStream).z
	if len(z) < npath {
		return nil
	}
	st.lru.MoveToFront(e)
	return z[:npath:npath]
}

// put stores z, the first len(z) normals of stream (0, seed), unless the
// store already holds as many, and evicts the least recently used seeds
// until the budget holds. z must not be written after the call.
func (st *streamStore) put(seed uint64, z []float64) {
	if len(z) == 0 || len(z) > st.maxPaths() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.bySeed[seed]; ok {
		if len(e.Value.(*storedStream).z) >= len(z) {
			return // a concurrent miss stored it first
		}
		st.remove(e)
	}
	st.bySeed[seed] = st.lru.PushFront(&storedStream{seed: seed, z: z})
	st.bytes += 8*len(z) + entryOverhead
	for st.bytes > st.budget {
		st.remove(st.lru.Back())
	}
}

func (st *streamStore) remove(e *list.Element) {
	s := st.lru.Remove(e).(*storedStream)
	delete(st.bySeed, s.seed)
	st.bytes -= 8*len(s.z) + entryOverhead
}
