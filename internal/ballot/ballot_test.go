package ballot

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareLexicographic(t *testing.T) {
	ordered := []Ballot{
		{},
		{MCount: 0, MinCount: 0, ID: 0, RType: 1},
		{MCount: 0, MinCount: 0, ID: 1, RType: 0},
		{MCount: 0, MinCount: 1, ID: 0, RType: 0},
		{MCount: 0, MinCount: 1, ID: 2, RType: 3},
		{MCount: 0, MinCount: 2, ID: 0, RType: 0},
		{MCount: 1, MinCount: 0, ID: 0, RType: 0},
		{MCount: 2, MinCount: 0, ID: 0, RType: 0},
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	f := func(a, b, c Ballot) bool {
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Compare(a) != 0 {
			return false
		}
		// Transitivity on a sorted triple.
		s := []Ballot{a, b, c}
		sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
		return s[0].LessEq(s[1]) && s[1].LessEq(s[2]) && s[0].LessEq(s[2])
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestZeroIsSmallest(t *testing.T) {
	f := func(b Ballot) bool { return Zero.LessEq(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !Zero.IsZero() || Zero.String() != "⟨0:0,0,0⟩" {
		t.Errorf("Zero malformed: %v", Zero)
	}
}

func TestMax(t *testing.T) {
	a := Ballot{MinCount: 1}
	b := Ballot{MinCount: 2}
	if Max(a, b) != b || Max(b, a) != b {
		t.Errorf("Max is wrong")
	}
	if MaxOf(nil) != Zero {
		t.Errorf("MaxOf(nil) must be Zero")
	}
	if MaxOf([]Ballot{a, b, a}) != b {
		t.Errorf("MaxOf must pick the largest")
	}
}

func TestSchemeSuccessionIncreases(t *testing.T) {
	schemes := []Scheme{SingleScheme{}, MultiScheme{}, FastScheme{}, FastUncoordScheme{}}
	for _, s := range schemes {
		b := s.First(0, 3)
		if !Zero.Less(b) {
			t.Errorf("%T: First must exceed Zero", s)
		}
		for i := 0; i < 20; i++ {
			n := s.Next(b, 3)
			if !b.Less(n) {
				t.Errorf("%T: Next(%v) = %v does not increase", s, b, n)
			}
			b = n
		}
	}
}

func TestSingleSchemeKinds(t *testing.T) {
	s := SingleScheme{}
	b := s.First(0, 1)
	if s.Kind(b) != KindSingle || s.IsFast(b) {
		t.Errorf("single scheme must produce single-coordinated rounds")
	}
}

func TestMultiSchemeAlternation(t *testing.T) {
	s := MultiScheme{}
	b := s.First(0, 1)
	if s.Kind(b) != KindMulti {
		t.Fatalf("first round must be multicoordinated, got %v", s.Kind(b))
	}
	n := s.Next(b, 1)
	if s.Kind(n) != KindSingle {
		t.Errorf("a multicoordinated round must be followed by a single-coordinated recovery round")
	}
	nn := s.Next(n, 1)
	if s.Kind(nn) != KindMulti {
		t.Errorf("a recovery round must be followed by a fresh multicoordinated round")
	}
	if !b.Less(n) || !n.Less(nn) {
		t.Errorf("succession must be increasing: %v %v %v", b, n, nn)
	}
}

func TestFastSchemeAlternation(t *testing.T) {
	s := FastScheme{}
	b := s.First(0, 2)
	if !s.IsFast(b) {
		t.Fatalf("first round must be fast")
	}
	n := s.Next(b, 2)
	if s.Kind(n) != KindSingle {
		t.Errorf("coordinated recovery must use a classic round, got %v", s.Kind(n))
	}
	if s.Kind(s.Next(n, 2)) != KindFast {
		t.Errorf("recovery must be followed by a fast round again")
	}
}

func TestFastUncoordSchemeStaysFast(t *testing.T) {
	s := FastUncoordScheme{}
	b := s.First(0, 2)
	for i := 0; i < 5; i++ {
		if !s.IsFast(b) {
			t.Fatalf("uncoordinated recovery chain must stay fast at %v", b)
		}
		b = s.Next(b, 2)
	}
}

func TestRecoveryBumpsIncarnation(t *testing.T) {
	// A recovered coordinator restarts with a higher MCount; all its new
	// rounds must dominate every pre-crash round regardless of MinCount.
	s := MultiScheme{}
	old := s.First(0, 1)
	for i := 0; i < 100; i++ {
		old = s.Next(old, 1)
	}
	fresh := s.First(1, 1)
	if !old.Less(fresh) {
		t.Errorf("incarnation bump must dominate: %v vs %v", old, fresh)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindSingle: "single-coordinated",
		KindMulti:  "multicoordinated",
		KindFast:   "fast",
		0:          "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
