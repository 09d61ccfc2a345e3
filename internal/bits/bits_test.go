package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMsb(t *testing.T) {
	cases := []struct {
		x    Node
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 3}, {8, 4}, {1 << 29, 30},
	}
	for _, c := range cases {
		if got := Msb(c.x); got != c.want {
			t.Errorf("Msb(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLevel(t *testing.T) {
	cases := []struct {
		x    Node
		want int
	}{
		{0, 0}, {1, 1}, {3, 2}, {7, 3}, {0b101010, 3}, {0b111111, 6},
	}
	for _, c := range cases {
		if got := Level(c.x); got != c.want {
			t.Errorf("Level(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBitSetClearFlip(t *testing.T) {
	x := Node(0b1010)
	if !Bit(x, 2) || Bit(x, 1) {
		t.Fatalf("Bit readout wrong for %04b", x)
	}
	if got := Set(x, 1); got != 0b1011 {
		t.Errorf("Set = %04b", got)
	}
	if got := Clear(x, 2); got != 0b1000 {
		t.Errorf("Clear = %04b", got)
	}
	if got := Flip(x, 4); got != 0b0010 {
		t.Errorf("Flip = %04b", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label(0b1010, 0b1000); got != 2 {
		t.Errorf("Label = %d, want 2", got)
	}
	if got := Label(0, 1); got != 1 {
		t.Errorf("Label = %d, want 1", got)
	}
}

func TestLabelPanicsOnNonNeighbours(t *testing.T) {
	for _, pair := range [][2]Node{{0, 0}, {0, 3}, {5, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Label(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			Label(pair[0], pair[1])
		}()
	}
}

func TestIsNeighbour(t *testing.T) {
	if !IsNeighbour(0, 4) {
		t.Error("0 and 4 should be neighbours")
	}
	if IsNeighbour(0, 0) || !IsNeighbour(1, 3) {
		t.Error("neighbour classification wrong")
	}
	if IsNeighbour(0, 3) {
		t.Error("0 and 3 are not neighbours")
	}
}

func TestNeighbours(t *testing.T) {
	got := Neighbours(0b0101, 4)
	want := []Node{0b0100, 0b0111, 0b0001, 0b1101}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Neighbours[%d] = %04b, want %04b", i, got[i], want[i])
		}
	}
}

func TestSmallerBiggerNeighboursPartition(t *testing.T) {
	const d = 6
	for x := Node(0); x < 1<<d; x++ {
		s := SmallerNeighbours(x, d)
		b := BiggerNeighbours(x, d)
		if len(s)+len(b) != d {
			t.Fatalf("x=%d: %d smaller + %d bigger != %d", x, len(s), len(b), d)
		}
		m := Msb(x)
		for _, y := range s {
			if Label(x, y) > m {
				t.Errorf("x=%d: smaller neighbour %d has label > m(x)", x, y)
			}
		}
		for _, y := range b {
			if Label(x, y) <= m {
				t.Errorf("x=%d: bigger neighbour %d has label <= m(x)", x, y)
			}
			if Level(y) != Level(x)+1 {
				t.Errorf("x=%d: bigger neighbour %d not one level up", x, y)
			}
			if Parent(y) != x {
				t.Errorf("x=%d: bigger neighbour %d has parent %d", x, y, Parent(y))
			}
		}
	}
}

func TestParentRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parent(0) did not panic")
		}
	}()
	Parent(0)
}

func TestTreeType(t *testing.T) {
	const d = 6
	if got := TreeType(0, d); got != d {
		t.Errorf("root type = T(%d), want T(%d)", got, d)
	}
	// Children of the root have types T(d-1) .. T(0) in label order.
	for i, c := range BiggerNeighbours(0, d) {
		if got := TreeType(c, d); got != d-1-i {
			t.Errorf("child %d type = T(%d), want T(%d)", c, got, d-1-i)
		}
	}
	// A node of type T(k) has exactly k broadcast-tree children, of
	// types T(k-1) .. T(0) (Definition 1).
	for x := Node(0); x < 1<<d; x++ {
		k := TreeType(x, d)
		ch := BiggerNeighbours(x, d)
		if len(ch) != k {
			t.Fatalf("x=%d: type T(%d) but %d children", x, k, len(ch))
		}
		for i, c := range ch {
			if got := TreeType(c, d); got != k-1-i {
				t.Errorf("x=%d child %d: type T(%d), want T(%d)", x, c, got, k-1-i)
			}
		}
	}
}

func TestIsTreeLeaf(t *testing.T) {
	const d = 5
	for x := Node(0); x < 1<<d; x++ {
		want := Msb(x) == d
		if got := IsTreeLeaf(x, d); got != want {
			t.Errorf("IsTreeLeaf(%d) = %v, want %v", x, got, want)
		}
	}
}

func TestClassSizes(t *testing.T) {
	// Property 5: |C_0| = 1 and |C_i| = 2^(i-1).
	const d = 7
	counts := make([]int, d+1)
	for x := Node(0); x < 1<<d; x++ {
		counts[Class(x)]++
	}
	if counts[0] != 1 {
		t.Errorf("|C_0| = %d", counts[0])
	}
	for i := 1; i <= d; i++ {
		if counts[i] != 1<<(i-1) {
			t.Errorf("|C_%d| = %d, want %d", i, counts[i], 1<<(i-1))
		}
	}
}

func TestNodesInClassMatchesClass(t *testing.T) {
	const d = 6
	for i := 0; i <= d; i++ {
		nodes := NodesInClass(d, i)
		for _, x := range nodes {
			if Class(x) != i {
				t.Errorf("NodesInClass(%d,%d) contains %d with class %d", d, i, x, Class(x))
			}
		}
		want := 1
		if i > 0 {
			want = 1 << (i - 1)
		}
		if len(nodes) != want {
			t.Errorf("|NodesInClass(%d,%d)| = %d, want %d", d, i, len(nodes), want)
		}
	}
}

func TestHammingDistance(t *testing.T) {
	if got := HammingDistance(0b1010, 0b0101); got != 4 {
		t.Errorf("distance = %d, want 4", got)
	}
	if got := HammingDistance(7, 7); got != 0 {
		t.Errorf("distance = %d, want 0", got)
	}
}

func TestHammingPath(t *testing.T) {
	const d = 5
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := Node(rng.Intn(1 << d))
		y := Node(rng.Intn(1 << d))
		p := HammingPath(x, y, d)
		if p[0] != x || p[len(p)-1] != y {
			t.Fatalf("path endpoints wrong: %v for %d->%d", p, x, y)
		}
		if len(p) != HammingDistance(x, y)+1 {
			t.Fatalf("path not shortest: %v", p)
		}
		for i := 1; i < len(p); i++ {
			if !IsNeighbour(p[i-1], p[i]) {
				t.Fatalf("path has non-edge step: %v", p)
			}
		}
	}
}

func TestHammingPathDescendsFirst(t *testing.T) {
	// The path must clear bits before setting them so that transit stays
	// as low (as clean) as possible.
	p := HammingPath(0b0110, 0b1001, 4)
	minLevel := Level(0b0110)
	seenBottom := false
	for _, x := range p {
		if Level(x) < minLevel {
			minLevel = Level(x)
		}
		if Level(x) == 1 {
			seenBottom = true
		}
		if seenBottom && Level(x) < minLevel {
			t.Fatalf("path rises then falls: %v", p)
		}
	}
	if !seenBottom {
		t.Fatalf("path did not descend first: %v", p)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	const d = 8
	f := func(raw uint32) bool {
		x := Node(raw % (1 << d))
		s := String(x, d)
		if len(s) != d {
			return false
		}
		y, err := Parse(s)
		return err == nil && y == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Error("empty string accepted")
	}
	if _, err := Parse("01x0"); err == nil {
		t.Error("non-binary string accepted")
	}
	if _, err := Parse("0101010101010101010101010101010101"); err == nil {
		t.Error("overlong string accepted")
	}
}

func TestString(t *testing.T) {
	if got := String(0b000101, 6); got != "000101" {
		t.Errorf("String = %q", got)
	}
	if got := String(0, 3); got != "000" {
		t.Errorf("String = %q", got)
	}
}

func TestNodesAtLevel(t *testing.T) {
	const d = 6
	total := 0
	for l := 0; l <= d; l++ {
		nodes := NodesAtLevel(d, l)
		total += len(nodes)
		prev := Node(0)
		for i, x := range nodes {
			if Level(x) != l {
				t.Errorf("NodesAtLevel(%d,%d) contains %d at level %d", d, l, x, Level(x))
			}
			if i > 0 && x <= prev {
				t.Errorf("NodesAtLevel(%d,%d) not strictly increasing at %d", d, l, x)
			}
			prev = x
		}
	}
	if total != 1<<d {
		t.Errorf("levels cover %d nodes, want %d", total, 1<<d)
	}
}

func TestNodesAtLevelEdges(t *testing.T) {
	if got := NodesAtLevel(4, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("level 0 = %v", got)
	}
	if got := NodesAtLevel(4, 4); len(got) != 1 || got[0] != 0b1111 {
		t.Errorf("level d = %v", got)
	}
}

func TestQuickMsbLevelInvariants(t *testing.T) {
	f := func(raw uint32) bool {
		x := Node(raw % (1 << 20))
		if x == 0 {
			return Msb(x) == 0 && Level(x) == 0
		}
		m := Msb(x)
		// msb position is set, and nothing above it is.
		if !Bit(x, m) {
			return false
		}
		for i := m + 1; i <= 20; i++ {
			if Bit(x, i) {
				return false
			}
		}
		// Level of parent is one less.
		return Level(Parent(x)) == Level(x)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFlipInvolution(t *testing.T) {
	f := func(raw uint32, pos uint8) bool {
		x := Node(raw % (1 << 20))
		i := int(pos)%20 + 1
		return Flip(Flip(x, i), i) == x && IsNeighbour(x, Flip(x, i)) && Label(x, Flip(x, i)) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCheckDim(t *testing.T) {
	CheckDim(0)
	CheckDim(MaxDim)
	for _, d := range []int{-1, MaxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CheckDim(%d) did not panic", d)
				}
			}()
			CheckDim(d)
		}()
	}
}

// TestSplitMix64Reference pins the finalizer against the reference
// generator: stepping state 0 by Golden yields the published
// SplitMix64 sequence for seed 0.
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
		state += Golden
	}
}
