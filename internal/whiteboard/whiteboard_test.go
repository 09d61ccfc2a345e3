package whiteboard

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func TestReadWriteAdd(t *testing.T) {
	s := NewStore(3)
	agents := s.Field("agents")
	b := s.At(1)
	if b.Read(agents) != 0 {
		t.Error("unwritten field should read 0")
	}
	b.Write(agents, 5)
	if b.Read(agents) != 5 {
		t.Error("write lost")
	}
	if b.Add(agents, -2) != 3 || b.Read(agents) != 3 {
		t.Error("Add wrong")
	}
	if s.Len() != 3 {
		t.Error("Len wrong")
	}
}

func TestFieldInterning(t *testing.T) {
	s := NewStore(1)
	a := s.Field("alpha")
	b := s.Field("beta")
	if a == b {
		t.Fatal("distinct names interned to the same Field")
	}
	if s.Field("alpha") != a {
		t.Error("re-interning is not idempotent")
	}
	if s.FieldName(a) != "alpha" || s.FieldName(b) != "beta" {
		t.Error("FieldName round trip wrong")
	}
}

func TestReadBeyondSlab(t *testing.T) {
	s := NewStore(1)
	// Intern many fields but never write them on this board: Read must
	// report zero without growing anything.
	var last Field
	for i := 0; i < 100; i++ {
		last = s.Field("f" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	if s.At(0).Read(last) != 0 {
		t.Error("unwritten high field should read 0")
	}
	if s.At(0).Bits() != 0 {
		t.Error("reads must not count toward Bits")
	}
}

// Writing fields 0..n-1 in order on one board must grow its slab
// geometrically: O(log n) allocations, not one per new field.
func TestWriteGrowthAmortized(t *testing.T) {
	const n = 4096
	s := NewStore(1)
	fields := make([]Field, n)
	for i := range fields {
		fields[i] = s.Field(fmt.Sprintf("f%d", i))
	}
	b := s.At(0)
	allocs := testing.AllocsPerRun(5, func() {
		b.vals, b.written = nil, nil
		for i, f := range fields {
			b.Write(f, int64(i))
		}
	})
	// Two slabs (values and written flags) per doubling.
	if limit := 2 * (bits.Len(n) + 1); allocs > float64(limit) {
		t.Errorf("%d in-order writes made %.0f allocations, want at most %d", n, allocs, limit)
	}
	for i, f := range fields {
		if got := b.Read(f); got != int64(i) {
			t.Fatalf("field %d reads %d after growth", i, got)
		}
	}
}

func TestCompareAndSwapElection(t *testing.T) {
	s := NewStore(1)
	elect := s.Field("sync")
	b := s.At(0)
	if !b.CompareAndSwap(elect, 0, 7) {
		t.Fatal("first CAS should win")
	}
	if b.CompareAndSwap(elect, 0, 9) {
		t.Fatal("second CAS should lose")
	}
	if b.Read(elect) != 7 {
		t.Error("winner overwritten")
	}
}

func TestUpdate(t *testing.T) {
	s := NewStore(1)
	x := s.Field("x")
	b := s.At(0)
	got := b.Update(x, func(v int64) int64 { return v*2 + 1 })
	if got != 1 || b.Read(x) != 1 {
		t.Error("Update wrong")
	}
	if b.Update(x, func(v int64) int64 { return v + 9 }) != 10 {
		t.Error("second Update wrong")
	}
}

func TestConcurrentElectionExactlyOneWinner(t *testing.T) {
	s := NewStore(1)
	f := s.Field("sync")
	b := s.At(0)
	const workers = 64
	var wg sync.WaitGroup
	wins := make(chan int, workers)
	for i := 1; i <= workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if b.CompareAndSwap(f, 0, int64(id)) {
				wins <- id
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	count := 0
	var winner int
	for id := range wins {
		count++
		winner = id
	}
	if count != 1 {
		t.Fatalf("%d winners", count)
	}
	if b.Read(f) != int64(winner) {
		t.Error("stored winner mismatch")
	}
}

func TestConcurrentAdd(t *testing.T) {
	s := NewStore(1)
	count := s.Field("count")
	b := s.At(0)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				b.Add(count, 1)
			}
		}()
	}
	wg.Wait()
	if b.Read(count) != workers*per {
		t.Errorf("count = %d", b.Read(count))
	}
}

// Interning itself must be safe under concurrency: many goroutines
// racing to intern overlapping name sets must agree on the IDs.
func TestConcurrentInterning(t *testing.T) {
	s := NewStore(1)
	const workers = 32
	const names = 20
	results := make([][]Field, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := make([]Field, names)
			for j := 0; j < names; j++ {
				fs[j] = s.Field("n" + string(rune('a'+j)))
			}
			results[i] = fs
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		for j := 0; j < names; j++ {
			if results[i][j] != results[0][j] {
				t.Fatalf("worker %d interned %q as %d, worker 0 as %d",
					i, "n"+string(rune('a'+j)), results[i][j], results[0][j])
			}
		}
	}
}

func TestBitsAccounting(t *testing.T) {
	s := NewStore(2)
	b := s.At(0)
	if b.Bits() != 0 {
		t.Error("empty board should use 0 bits")
	}
	b.Write(s.Field("flag"), 1)
	if b.Bits() != 1 {
		t.Errorf("1-bit value counted as %d", b.Bits())
	}
	b.Write(s.Field("count"), 255) // 8 bits
	if b.Bits() != 9 {
		t.Errorf("bits = %d, want 9", b.Bits())
	}
	b.Write(s.Field("neg"), -4) // |−4| = 100b -> 3 bits
	if b.Bits() != 12 {
		t.Errorf("bits = %d, want 12", b.Bits())
	}
	if s.MaxBits() != 12 {
		t.Errorf("MaxBits = %d", s.MaxBits())
	}
	s.At(1).Write(s.Field("big"), 1<<40)
	if s.MaxBits() != 41 {
		t.Errorf("MaxBits = %d, want 41", s.MaxBits())
	}
}

func TestDumpDeterministic(t *testing.T) {
	s := NewStore(1)
	b := s.At(0)
	b.Write(s.Field("zeta"), 1)
	b.Write(s.Field("alpha"), 2)
	d := b.Dump()
	if !strings.HasPrefix(d, "alpha=2 ") || !strings.Contains(d, "zeta=1") {
		t.Errorf("Dump = %q", d)
	}
	if d != b.Dump() {
		t.Error("Dump not deterministic")
	}
}
