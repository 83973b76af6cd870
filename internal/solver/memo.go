package solver

import (
	"container/list"
	"sync"
)

// Memo is a bounded LRU cache of full-tier outcomes. Entries are
// keyed by the canonical encoding (canon.go), so a hit transfers across
// variable renamings and conjunct permutations. The cache is safe for
// concurrent use: one Memo is shared per verification run across all
// parallel submodel Checkers as the second lookup tier behind each
// Checker's private memo.
type Memo struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *memoPair
	entries map[string]*list.Element
}

type memoPair struct {
	key string
	e   *memoEntry
}

// memoEntry replays one full-tier outcome without re-solving. Entries are
// immutable after insertion — they are shared between goroutines and
// between the local and run-wide tiers.
type memoEntry struct {
	sat     bool
	model   []uint64 // canonical model by canonical var index; nil when !sat
	vars    int64    // fresh-blast CNF size, replayed so the comparable
	clauses int64    // bitblast counters stay mode-independent
}

// Default capacities. The local tier keeps a Checker's recent working set;
// the shared tier is sized for a whole corpus run.
const (
	localMemoCap  = 1 << 12
	SharedMemoCap = 1 << 16
)

// NewMemo returns a Memo bounded to capacity entries (minimum 1).
func NewMemo(capacity int) *Memo {
	if capacity < 1 {
		capacity = 1
	}
	return &Memo{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// Len reports the current number of cached entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

func (m *Memo) get(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoPair).e
}

func (m *Memo) put(key string, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoPair).e = e
		m.lru.MoveToFront(el)
		return
	}
	m.entries[key] = m.lru.PushFront(&memoPair{key: key, e: e})
	for m.lru.Len() > m.cap {
		old := m.lru.Back()
		m.lru.Remove(old)
		delete(m.entries, old.Value.(*memoPair).key)
	}
}
