package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent1, parent2 := New(7), New(7)
	c1 := parent1.Split("devices")
	c2 := parent2.Split("devices")
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split with same label from same parent state diverged")
		}
	}
	d1 := New(7).Split("devices")
	d2 := New(7).Split("basestations")
	same := true
	for i := 0; i < 10; i++ {
		if d1.Float64() != d2.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

func TestSplitIndexed(t *testing.T) {
	a := SplitIndexed(99, "device", 5)
	b := SplitIndexed(99, "device", 5)
	c := SplitIndexed(99, "device", 6)
	diverged := false
	for i := 0; i < 50; i++ {
		av, cv := a.Float64(), c.Float64()
		if av != b.Float64() {
			t.Fatal("identical (seed,label,index) diverged")
		}
		if av != cv {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different indices produced identical streams")
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(2)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %.4f, want ~0.30", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(3)
	n, sum := 200000, 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(42)
	}
	mean := sum / float64(n)
	if math.Abs(mean-42) > 1 {
		t.Errorf("Exp(42) sample mean = %.2f, want ~42", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := New(3)
	if s.Exp(0) != 0 || s.Exp(-5) != 0 {
		t.Error("Exp with non-positive mean should return 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(4)
	n := 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.LogNormal(2, 1.5) // median should be e^2 ≈ 7.389
	}
	// crude median: count below e^2
	below := 0
	for _, x := range xs {
		if x < math.Exp(2) {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("LogNormal median check: %.4f below e^mu, want ~0.5", frac)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	f := func(seed int64) bool {
		v := s.Uniform(10, 20)
		return v >= 10 && v < 20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategoricalProportions(t *testing.T) {
	s := New(9)
	c := NewCategorical([]float64{1, 2, 7})
	counts := make([]int, 3)
	n := 200000
	for i := 0; i < n; i++ {
		counts[c.Draw(s)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, w := range want {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-w) > 0.01 {
			t.Errorf("category %d frequency %.4f, want ~%.2f", i, got, w)
		}
	}
	for i, w := range want {
		p := c.cum[i]
		if i > 0 {
			p -= c.cum[i-1]
		}
		if math.Abs(p-w) > 1e-12 {
			t.Errorf("normalized weight %d = %v, want %v", i, p, w)
		}
	}
}

func TestCategoricalNegativeWeightTreatedAsZero(t *testing.T) {
	s := New(10)
	c := NewCategorical([]float64{-1, 0, 5})
	for i := 0; i < 1000; i++ {
		if got := c.Draw(s); got != 2 {
			t.Fatalf("Draw() = %d, want 2 (only positive weight)", got)
		}
	}
}

func TestCategoricalAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("all-zero weights did not panic")
		}
	}()
	NewCategorical([]float64{0, 0})
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}
