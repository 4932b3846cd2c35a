package layout

import (
	"testing"
	"testing/quick"
)

func TestAOSAccessors(t *testing.T) {
	a := NewAOS(3)
	a.Set(1, 100, 110, 2.5)
	a.SetResult(1, 7.5, 12.25)
	if a.S(1) != 100 || a.X(1) != 110 || a.T(1) != 2.5 {
		t.Fatalf("inputs wrong: %g %g %g", a.S(1), a.X(1), a.T(1))
	}
	if a.Call(1) != 7.5 || a.Put(1) != 12.25 {
		t.Fatalf("outputs wrong: %g %g", a.Call(1), a.Put(1))
	}
	if a.S(0) != 0 || a.S(2) != 0 {
		t.Fatal("neighbouring records touched")
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestAOSMemoryLayout(t *testing.T) {
	// Record i's fields must be contiguous at stride 5 — the property that
	// makes the reference kernels' gathers strided.
	a := NewAOS(2)
	a.Set(0, 1, 2, 3)
	a.SetResult(0, 4, 5)
	a.Set(1, 6, 7, 8)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 0, 0}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Data[%d] = %g, want %g", i, a.Data[i], w)
		}
	}
}

// sameAsAOS reports whether every SOA field of option i holds a's value
// (NaN inputs compare equal to themselves).
func sameAsAOS(a AOS, s *SOA, i int) bool {
	eq := func(x, y float64) bool { return x == y || (x != x && y != y) }
	return eq(s.S[i], a.S(i)) && eq(s.X[i], a.X(i)) && eq(s.T[i], a.T(i)) &&
		eq(s.Call[i], a.Call(i)) && eq(s.Put[i], a.Put(i))
}

func TestSOARoundTrip(t *testing.T) {
	a := NewAOS(5)
	for i := 0; i < 5; i++ {
		a.Set(i, float64(i)+1, float64(i)*2, float64(i)/2)
		a.SetResult(i, float64(i)*10, float64(i)*20)
	}
	s := a.ToSOA()
	for i := 0; i < 5; i++ {
		if !sameAsAOS(a, s, i) {
			t.Fatalf("option %d differs after ToSOA", i)
		}
	}
}

func TestSOARoundTripQuick(t *testing.T) {
	f := func(s, x, tt, c, p float64) bool {
		a := NewAOS(1)
		a.Set(0, s, x, tt)
		a.SetResult(0, c, p)
		return sameAsAOS(a, a.ToSOA(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSOALen(t *testing.T) {
	if NewSOA(7).Len() != 7 {
		t.Fatal("SOA Len wrong")
	}
}

func TestPadTo(t *testing.T) {
	cases := []struct{ n, w, want int }{
		{0, 8, 0}, {1, 8, 8}, {8, 8, 8}, {9, 8, 16}, {10, 4, 12}, {5, 1, 5}, {5, 0, 5},
	}
	for _, c := range cases {
		if got := PadTo(c.n, c.w); got != c.want {
			t.Fatalf("PadTo(%d,%d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}
