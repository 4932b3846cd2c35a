package workload

import (
	"testing"
)

func TestGenerateAOSInRange(t *testing.T) {
	g := DefaultOptionGen
	a := g.GenerateAOS(1000)
	if a.Len() != 1000 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.S(i) < g.SMin || a.S(i) >= g.SMax {
			t.Fatalf("S[%d] = %g out of range", i, a.S(i))
		}
		if a.X(i) < g.XMin || a.X(i) >= g.XMax {
			t.Fatalf("X[%d] = %g out of range", i, a.X(i))
		}
		if a.T(i) < g.TMin || a.T(i) >= g.TMax {
			t.Fatalf("T[%d] = %g out of range", i, a.T(i))
		}
		if a.Call(i) != 0 || a.Put(i) != 0 {
			t.Fatalf("outputs not zeroed at %d", i)
		}
	}
}

func TestGenerateReproducible(t *testing.T) {
	a := DefaultOptionGen.GenerateAOS(100)
	b := DefaultOptionGen.GenerateAOS(100)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different batches")
		}
	}
	g2 := DefaultOptionGen
	g2.Seed++
	c := g2.GenerateAOS(100)
	same := 0
	for i := range a.Data {
		if a.Data[i] == c.Data[i] {
			same++
		}
	}
	if same == len(a.Data) {
		t.Fatal("different seeds produced identical batches")
	}
}

func TestGenerateSOAMatchesAOS(t *testing.T) {
	a := DefaultOptionGen.GenerateAOS(50)
	s := DefaultOptionGen.GenerateSOA(50)
	for i := 0; i < 50; i++ {
		if s.S[i] != a.S(i) || s.X[i] != a.X(i) || s.T[i] != a.T(i) {
			t.Fatalf("SOA differs from AOS at %d", i)
		}
	}
}

func TestDefaultMarket(t *testing.T) {
	if DefaultMarket.R <= 0 || DefaultMarket.Sigma <= 0 {
		t.Fatal("default market params must be positive")
	}
}
