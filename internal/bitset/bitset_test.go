package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Test(%d) did not panic", i)
				}
			}()
			s.Test(i)
		}()
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestOrAnd(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	u := a.Clone()
	u.Or(b)
	for _, i := range []int{3, 70, 99} {
		if !u.Test(i) {
			t.Errorf("union missing %d", i)
		}
	}
	if u.Count() != 3 {
		t.Errorf("union count = %d, want 3", u.Count())
	}
	if a.Count() != 2 {
		t.Errorf("Or on a clone changed the original: %v", a)
	}
	x := a.Clone()
	x.And(b)
	if !x.Test(70) || x.Count() != 1 {
		t.Errorf("intersection wrong: %v", x)
	}
}

func TestOrCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Or with mismatched capacity did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{0, 5, 63, 64, 100, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(20)
	s.Set(1)
	s.Set(3)
	s.Set(9)
	if got := s.String(); got != "{1 3 9}" {
		t.Errorf("String = %q, want {1 3 9}", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

// Property: a Set behaves exactly like a map[int]bool under a random
// sequence of Set/Clear operations.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := make(map[int]bool)
		for op := 0; op < 500; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Test(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !model[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Or is commutative and And distributes as expected on random sets.
func TestQuickOrAndAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		// a∪b = b∪a, a ⊆ a∪b and (a∩b) ⊆ a
		ia := a.Clone()
		ia.And(b)
		for i := 0; i < n; i++ {
			if ab.Test(i) != ba.Test(i) {
				return false
			}
			if a.Test(i) && !ab.Test(i) {
				return false
			}
			if ia.Test(i) && !a.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<16 - 1))
		if i&1023 == 0 {
			_ = s.Count()
		}
	}
}
