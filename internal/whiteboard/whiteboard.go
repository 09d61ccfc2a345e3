// Package whiteboard implements the per-node shared storage of the
// paper's agent model: a small mutual-exclusion key/value store holding
// O(log n)-bit fields, accessed fairly by the agents residing on (or,
// in the visibility model, adjacent to) a node.
//
// Field names are interned once — typically at store construction or
// agent startup — into dense integer Field IDs; the Read/Write/Add/
// CompareAndSwap hot path is then a mutex plus a slice index, with no
// map lookup and no string hashing. This mirrors the paper's model:
// field names are program text, only the O(log n)-bit values are
// stored state.
//
// The store tracks a bit budget so tests can assert the paper's space
// claim: every strategy fits its per-node state in O(log n) bits.
package whiteboard

import (
	"fmt"
	"sort"
	"sync"
)

// Field is an interned field name, valid for the Store that issued it.
// Obtain Fields from Store.Field.
type Field int32

// Board is one node's whiteboard. The zero value is unusable; create
// stores with NewStore.
type Board struct {
	mu      sync.Mutex
	store   *Store
	vals    []int64 // indexed by Field; grown on first touch past the end
	written []bool  // tracks fields ever written, for Bits/Dump
}

// Store is the collection of whiteboards for a topology, one per node,
// plus the field interner they share.
type Store struct {
	boards []Board

	fmu   sync.RWMutex
	ids   map[string]Field
	names []string
}

// NewStore returns whiteboards for n nodes.
func NewStore(n int) *Store {
	s := &Store{
		boards: make([]Board, n),
		ids:    make(map[string]Field),
	}
	for i := range s.boards {
		s.boards[i].store = s
	}
	return s
}

// Field interns a field name, returning its dense ID. Interning is
// idempotent and safe for concurrent use, but it is the slow path:
// resolve fields once at construction (or when a dynamic key such as
// a per-order record is created), never per access.
func (s *Store) Field(name string) Field {
	s.fmu.RLock()
	f, ok := s.ids[name]
	s.fmu.RUnlock()
	if ok {
		return f
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.ids[name]; ok {
		return f
	}
	f = Field(len(s.names))
	s.ids[name] = f
	s.names = append(s.names, name)
	return f
}

// FieldName returns the name a Field was interned under.
func (s *Store) FieldName(f Field) string {
	s.fmu.RLock()
	defer s.fmu.RUnlock()
	return s.names[f]
}

// At returns node v's whiteboard.
func (s *Store) At(v int) *Board { return &s.boards[v] }

// Len returns the number of whiteboards.
func (s *Store) Len() int { return len(s.boards) }

// ensure makes the board's value slab cover f. Caller holds b.mu. The
// in-range check stays small enough to inline; growth is out of line.
func (b *Board) ensure(f Field) {
	if int(f) >= len(b.vals) {
		b.grow(f)
	}
}

// grow at least doubles the slab, so a board that gains fields one at
// a time (a ledger interning mirror fields per order) copies O(n)
// values in all, not O(n²).
//
//go:noinline
func (b *Board) grow(f Field) {
	n := max(int(f)+1, 2*len(b.vals))
	vals := make([]int64, n)
	copy(vals, b.vals)
	b.vals = vals
	written := make([]bool, n)
	copy(written, b.written)
	b.written = written
}

// Read returns the value of a field (0 if never written), under the
// board's lock.
func (b *Board) Read(f Field) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(f) >= len(b.vals) {
		return 0
	}
	return b.vals[f]
}

// Write sets a field under the board's lock.
func (b *Board) Write(f Field, v int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(f)
	b.vals[f] = v
	b.written[f] = true
}

// Add atomically adds delta to a field and returns the new value.
func (b *Board) Add(f Field, delta int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(f)
	b.vals[f] += delta
	b.written[f] = true
	return b.vals[f]
}

// CompareAndSwap atomically sets field to new if it currently equals
// old, reporting whether the swap happened. Agents use it to elect the
// synchronizer ("the first that gains access will become the
// synchronizer").
func (b *Board) CompareAndSwap(f Field, old, new int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(f)
	if b.vals[f] != old {
		return false
	}
	b.vals[f] = new
	b.written[f] = true
	return true
}

// Update runs fn on the current value of field under the lock and
// stores the result, returning it. It generalizes read-modify-write
// cycles that must be atomic under fair mutual exclusion.
func (b *Board) Update(f Field, fn func(int64) int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(f)
	v := fn(b.vals[f])
	b.vals[f] = v
	b.written[f] = true
	return v
}

// Bits returns the total number of bits the board currently stores:
// for each field ever written, the bits of its value (minimum 1).
// Field names are program text, not stored state, so they do not count
// — matching the paper's accounting, where the whiteboard holds a
// constant number of O(log n)-bit values.
func (b *Board) Bits() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for f, w := range b.written {
		if w {
			total += bitsOf(b.vals[f])
		}
	}
	return total
}

func bitsOf(v int64) int {
	if v < 0 {
		v = -v
	}
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// MaxBits returns the largest per-board bit usage across the store,
// for O(log n) space assertions.
func (s *Store) MaxBits() int {
	max := 0
	for i := range s.boards {
		if b := s.boards[i].Bits(); b > max {
			max = b
		}
	}
	return max
}

// Dump renders a board's written fields deterministically (sorted by
// name), for debugging.
func (b *Board) Dump() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	type kv struct {
		k string
		v int64
	}
	entries := make([]kv, 0, len(b.vals))
	for f, w := range b.written {
		if w {
			entries = append(entries, kv{b.store.FieldName(Field(f)), b.vals[f]})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
	out := ""
	for _, e := range entries {
		out += fmt.Sprintf("%s=%d ", e.k, e.v)
	}
	return out
}
