package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

// sparseFromSlice builds a set that starts sparse (promoting on its
// own if the elements exceed SparseMax).
func sparseFromSlice(elems []int) *Set {
	s := NewSparse()
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestPromotionBoundary(t *testing.T) {
	s := NewSparse()
	for i := 0; i < SparseMax; i++ {
		s.Add(i * 3)
	}
	if !s.IsSparse() {
		t.Fatalf("set with %d elements promoted early", SparseMax)
	}
	s.Add(5 * 3) // duplicate: must not promote
	if !s.IsSparse() {
		t.Fatal("duplicate Add at the boundary promoted the set")
	}
	s.Add(1000) // SparseMax+1st distinct element crosses the boundary
	if s.IsSparse() {
		t.Fatal("set did not promote past SparseMax elements")
	}
	want := make([]int, 0, SparseMax+1)
	for i := 0; i < SparseMax; i++ {
		want = append(want, i*3)
	}
	want = append(want, 1000)
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Errorf("elements lost across promotion: got %v, want %v", got, want)
	}
	if got, want := s.Len(), SparseMax+1; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

func TestSparseRemoveAndOrder(t *testing.T) {
	s := sparseFromSlice([]int{9, 1, 5, 1})
	if got, want := s.Elems(), []int{1, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	s.Remove(5)
	s.Remove(77) // absent: no-op
	if got, want := s.Elems(), []int{1, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Remove: %v, want %v", got, want)
	}
	if s.Has(5) || !s.Has(9) {
		t.Error("Has out of sync with Remove")
	}
}

// TestUnionAliasedReceiver covers x.UnionWith(x) and friends: a set
// unioned with itself must not change or corrupt its storage, in
// either representation.
func TestUnionAliasedReceiver(t *testing.T) {
	for _, mk := range []func([]int) *Set{FromSlice, sparseFromSlice} {
		s := mk([]int{1, 64, 200})
		if s.UnionWith(s) {
			t.Error("UnionWith(self) reported change")
		}
		if n := s.UnionInPlaceCount(s); n != 0 {
			t.Errorf("UnionInPlaceCount(self) = %d, want 0", n)
		}
		if s.UnionDiffWith(s, nil) {
			t.Error("UnionDiffWith(self, nil) reported change")
		}
		s.IntersectWith(s)
		if got, want := s.Elems(), []int{1, 64, 200}; !reflect.DeepEqual(got, want) {
			t.Errorf("self-ops corrupted set: %v, want %v", got, want)
		}
		s.DifferenceWith(s)
		if !s.Empty() {
			t.Error("DifferenceWith(self) did not empty the set")
		}
	}
}

func TestEqualTrailingZeroWords(t *testing.T) {
	a := New(1) // 1 word
	a.Add(3)
	b := New(1024) // 16 words, all trailing zeros after the first
	b.Add(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal not capacity-blind with trailing zero words")
	}
	c := sparseFromSlice([]int{3})
	if !a.Equal(c) || !c.Equal(b) {
		t.Error("Equal not representation-blind")
	}
	b.Add(700)
	if a.Equal(b) || b.Equal(a) || c.Equal(b) {
		t.Error("unequal sets reported Equal")
	}
	// An element living entirely in a word beyond the other set's
	// capacity must be seen.
	d := New(0)
	e := New(0)
	e.Add(640)
	e.Remove(640) // leaves a trailing zero word
	if !d.Equal(e) || !e.Equal(d) {
		t.Error("cleared high word broke Equal")
	}
}

// TestPoolReusePoisoning: a scratch set returned to the pool must come
// back cleared no matter which representation it was in, including the
// nasty case where a set lived dense, was CopyFrom'd a sparse source
// (leaving stale dense words behind), and is then recycled dense.
func TestPoolReusePoisoning(t *testing.T) {
	s := GetScratch(256)
	s.Add(7)
	s.Add(200)
	PutScratch(s)
	for i := 0; i < 8; i++ {
		u := GetScratch(256)
		if !u.Empty() || u.Has(7) || u.Has(200) {
			t.Fatal("recycled scratch not cleared")
		}
		PutScratch(u)
	}

	// Poison via representation flip: dense words go stale under a
	// sparse copy, then the set is recycled and must come back dense
	// and empty.
	v := GetScratch(256)
	v.Add(63)
	v.Add(130)
	v.CopyFrom(sparseFromSlice([]int{2}))
	if !v.IsSparse() {
		t.Fatal("CopyFrom(sparse) did not switch representation")
	}
	PutScratch(v)
	w := GetScratch(256)
	if w.IsSparse() {
		t.Error("GetScratch returned a sparse set")
	}
	if !w.Empty() || w.Has(63) || w.Has(130) || w.Has(2) {
		t.Errorf("stale dense words resurfaced after sparse detour: %v", w)
	}
	PutScratch(w)
}

func TestUnionInPlaceCount(t *testing.T) {
	s := FromSlice([]int{1, 2})
	if n := s.UnionInPlaceCount(FromSlice([]int{2, 3, 100})); n != 2 {
		t.Errorf("dense count = %d, want 2", n)
	}
	if n := s.UnionInPlaceCount(FromSlice([]int{1, 3})); n != 0 {
		t.Errorf("no-op count = %d, want 0", n)
	}
	sp := NewSparse()
	if n := sp.UnionInPlaceCount(FromSlice([]int{5, 9})); n != 2 {
		t.Errorf("sparse←dense count = %d, want 2", n)
	}
	if sp.IsSparse() != true {
		t.Error("small dense union promoted a sparse receiver")
	}
	if n := sp.UnionInPlaceCount(sparseFromSlice([]int{9, 10})); n != 1 {
		t.Errorf("sparse←sparse count = %d, want 1", n)
	}
	big := New(4096)
	for i := 0; i < 200; i++ {
		big.Add(i * 7)
	}
	// 5, 9, 10 are present and none is a multiple of 7, so all 200
	// elements of big are new.
	if n := sp.UnionInPlaceCount(big); n != 200 {
		t.Errorf("promoting union count = %d, want 200", n)
	}
	if sp.IsSparse() {
		t.Error("large dense union did not promote the receiver")
	}
	if n := sp.UnionInPlaceCount(nil); n != 0 {
		t.Errorf("UnionInPlaceCount(nil) = %d, want 0", n)
	}
}

func TestGrowDoubling(t *testing.T) {
	s := New(0)
	grows := 0
	lastCap := 0
	for i := 0; i < 4096; i++ {
		s.Add(i)
		if c := cap(s.words); c != lastCap {
			grows++
			lastCap = c
		}
	}
	// Exact-fit growth would reallocate on every 64th Add (64 times);
	// doubling needs only O(log n) reallocations.
	if grows > 10 {
		t.Errorf("grow reallocated %d times for 4096 incremental Adds; capacity doubling should need ≤ 10", grows)
	}
}

func TestMakeDenseMakeSparse(t *testing.T) {
	words := make([]uint64, 4)
	d := MakeDense(words)
	d.Add(65)
	if words[1] != 2 {
		t.Error("MakeDense does not alias the caller's storage")
	}
	buf := make([]uint32, SparseMax)
	sp := MakeSparse(buf)
	sp.Add(9)
	if !sp.IsSparse() || !sp.Has(9) || sp.Has(0) {
		t.Error("MakeSparse misbehaves")
	}
	for i := 0; i < SparseMax+1; i++ {
		sp.Add(i * 2)
	}
	if sp.IsSparse() {
		t.Error("MakeSparse set did not promote when it outgrew its buffer")
	}
}

// TestHybridOracle drives random operation sequences against a
// map-based model, mixing representations on every operand, so every
// sparse/dense branch pairing gets exercised.
func TestHybridOracle(t *testing.T) {
	const universe = 300
	r := rand.New(rand.NewSource(42))
	randSet := func() (*Set, map[int]bool) {
		var s *Set
		if r.Intn(2) == 0 {
			s = NewSparse()
		} else {
			s = New(r.Intn(universe))
		}
		m := map[int]bool{}
		for i, n := 0, r.Intn(60); i < n; i++ {
			e := r.Intn(universe)
			s.Add(e)
			m[e] = true
		}
		return s, m
	}
	check := func(step int, s *Set, m map[int]bool) {
		t.Helper()
		for e := 0; e < universe+64; e++ {
			if s.Has(e) != m[e] {
				t.Fatalf("step %d: Has(%d) = %v, model says %v (sparse=%v)", step, e, s.Has(e), m[e], s.IsSparse())
			}
		}
		if s.Len() != len(m) {
			t.Fatalf("step %d: Len = %d, model has %d", step, s.Len(), len(m))
		}
	}
	for step := 0; step < 500; step++ {
		a, ma := randSet()
		b, mb := randSet()
		c, mc := randSet()
		switch step % 6 {
		case 0:
			n := a.UnionInPlaceCount(b)
			want := 0
			for e := range mb {
				if !ma[e] {
					ma[e] = true
					want++
				}
			}
			if n != want {
				t.Fatalf("step %d: UnionInPlaceCount = %d, want %d", step, n, want)
			}
		case 1:
			a.IntersectWith(b)
			for e := range ma {
				if !mb[e] {
					delete(ma, e)
				}
			}
		case 2:
			a.DifferenceWith(b)
			for e := range mb {
				delete(ma, e)
			}
		case 3:
			a.UnionDiffWith(b, c)
			for e := range mb {
				if !mc[e] {
					ma[e] = true
				}
			}
		case 4:
			got := a.SubsetOf(b)
			want := true
			for e := range ma {
				if !mb[e] {
					want = false
				}
			}
			if got != want {
				t.Fatalf("step %d: SubsetOf = %v, want %v", step, got, want)
			}
			gi, wi := a.Intersects(b), false
			for e := range ma {
				if mb[e] {
					wi = true
				}
			}
			if gi != wi {
				t.Fatalf("step %d: Intersects = %v, want %v", step, gi, wi)
			}
		case 5:
			sc := GetScratch(0).CopyFrom(a)
			if !sc.Equal(a) || sc.IsSparse() != a.IsSparse() {
				t.Fatalf("step %d: CopyFrom not faithful", step)
			}
			e := r.Intn(universe)
			sc.Add(e)
			sc.Remove(e)
			PutScratch(sc)
		}
		check(step, a, ma)
		// Cross-mode Equal: a must equal an independently rebuilt set
		// of the opposite construction.
		rebuilt := NewSparse()
		if a.IsSparse() {
			rebuilt = New(universe)
		}
		for e := range ma {
			rebuilt.Add(e)
		}
		if !a.Equal(rebuilt) || !rebuilt.Equal(a) {
			t.Fatalf("step %d: Equal disagrees across representations", step)
		}
	}
}

// TestAny covers early-stopping iteration in both representations and
// across the sparse-to-dense promotion boundary: elements are visited
// in increasing order, the callback is never called after its first
// true, and an empty set never calls it at all.
func TestAny(t *testing.T) {
	atBoundary := make([]int, SparseMax) // fills a sparse set exactly
	for i := range atBoundary {
		atBoundary[i] = i * 5
	}
	pastBoundary := append(append([]int(nil), atBoundary...), 4000) // promotes
	cases := []struct {
		name       string
		set        *Set
		elems      []int
		wantSparse bool
	}{
		{"empty sparse", NewSparse(), nil, true},
		{"empty dense", New(256), nil, false},
		{"zero value", &Set{}, nil, false},
		{"sparse", sparseFromSlice([]int{40, 3, 17}), []int{3, 17, 40}, true},
		{"dense", FromSlice([]int{300, 5, 64, 63, 70}), []int{5, 63, 64, 70, 300}, false},
		{"sparse at SparseMax", sparseFromSlice(atBoundary), atBoundary, true},
		{"promoted past SparseMax", sparseFromSlice(pastBoundary), pastBoundary, false},
	}
	for _, c := range cases {
		if c.set.IsSparse() != c.wantSparse {
			t.Fatalf("%s: IsSparse = %v, want %v", c.name, c.set.IsSparse(), c.wantSparse)
		}
		// Never true: every element is visited, in increasing order.
		var seen []int
		if c.set.Any(func(i int) bool { seen = append(seen, i); return false }) {
			t.Errorf("%s: Any reported a match for an always-false callback", c.name)
		}
		if !reflect.DeepEqual(seen, c.elems) && len(seen)+len(c.elems) > 0 {
			t.Errorf("%s: visited %v, want %v", c.name, seen, c.elems)
		}
		// Stop at each element in turn: nothing after it is visited.
		for k, stop := range c.elems {
			seen = seen[:0]
			if !c.set.Any(func(i int) bool { seen = append(seen, i); return i == stop }) {
				t.Errorf("%s: Any missed element %d", c.name, stop)
			}
			if !reflect.DeepEqual(seen, c.elems[:k+1]) {
				t.Errorf("%s: stopping at %d visited %v, want %v", c.name, stop, seen, c.elems[:k+1])
			}
		}
	}
}
