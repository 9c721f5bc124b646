package device

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestCatalogueSize(t *testing.T) {
	ms := Models()
	if len(ms) != NumModels || NumModels != 34 {
		t.Fatalf("catalogue has %d models, want 34", len(ms))
	}
}

func TestCatalogueMatchesPaperHeadlines(t *testing.T) {
	ms := Models()
	var userSum float64
	minPrev, maxPrev := math.Inf(1), math.Inf(-1)
	minFreq, maxFreq := math.Inf(1), math.Inf(-1)
	fiveG := 0
	for _, m := range ms {
		userSum += m.UserShare
		minPrev = math.Min(minPrev, m.Prevalence)
		maxPrev = math.Max(maxPrev, m.Prevalence)
		minFreq = math.Min(minFreq, m.Frequency)
		maxFreq = math.Max(maxFreq, m.Frequency)
		if m.FiveG {
			fiveG++
			if m.Android != 10 {
				t.Errorf("5G model %d must run Android 10", m.ID)
			}
		}
		if m.Android != 9 && m.Android != 10 {
			t.Errorf("model %d has Android %d", m.ID, m.Android)
		}
	}
	if math.Abs(userSum-1) > 1e-9 {
		t.Errorf("user shares sum to %v after normalization", userSum)
	}
	if fiveG != 4 {
		t.Errorf("%d 5G models, want 4 (models 23, 24, 33, 34)", fiveG)
	}
	// Paper: prevalence ranges 0.15%–45% (Table 1 shows 0.15%–44%).
	if minPrev != 0.0015 || math.Abs(maxPrev-0.44) > 1e-9 {
		t.Errorf("prevalence range [%v, %v], want [0.0015, 0.44]", minPrev, maxPrev)
	}
	// Frequency range 2.3–90.2.
	if minFreq != 2.3 || maxFreq != 90.2 {
		t.Errorf("frequency range [%v, %v], want [2.3, 90.2]", minFreq, maxFreq)
	}
	// Weighted averages: ~23% prevalence, ~33 failures/phone.
	if p := WeightedPrevalence(); math.Abs(p-0.23) > 0.03 {
		t.Errorf("weighted prevalence = %.3f, want ≈0.23", p)
	}
	if f := WeightedFrequency(); math.Abs(f-33) > 4 {
		t.Errorf("weighted frequency = %.1f, want ≈33", f)
	}
}

func TestByID(t *testing.T) {
	m, ok := ByID(23)
	if !ok || !m.FiveG || m.ID != 23 {
		t.Errorf("ByID(23) = %+v, %v", m, ok)
	}
	if _, ok := ByID(0); ok {
		t.Error("ByID(0) should fail")
	}
	if _, ok := ByID(35); ok {
		t.Error("ByID(35) should fail")
	}
}

func TestFiveGModels(t *testing.T) {
	var got []int
	for _, m := range Models() {
		if m.FiveG {
			got = append(got, m.ID)
		}
	}
	if want := []int{23, 24, 33, 34}; !slices.Equal(got, want) {
		t.Errorf("5G models = %v, want %v", got, want)
	}
}

func TestModelString(t *testing.T) {
	m, _ := ByID(33)
	s := m.String()
	if s == "" || s[:8] != "model-33" {
		t.Errorf("String = %q", s)
	}
}

func TestSampleIntensityReproducesPrevalence(t *testing.T) {
	r := rng.New(1)
	m, _ := ByID(21) // prevalence 36%
	const n = 50000
	prone := 0
	for i := 0; i < n; i++ {
		if SampleIntensity(r, m, DefaultIntensityParams()).Prone {
			prone++
		}
	}
	got := float64(prone) / n
	if math.Abs(got-m.Prevalence) > 0.01 {
		t.Errorf("prone fraction = %.3f, want ≈%.2f", got, m.Prevalence)
	}
}

func TestSampleIntensityReproducesFrequency(t *testing.T) {
	r := rng.New(2)
	m, _ := ByID(28) // frequency 58.1
	const n = 200000
	total := 0.0
	for i := 0; i < n; i++ {
		in := SampleIntensity(r, m, DefaultIntensityParams())
		total += in.ExpectedFailures
	}
	got := total / n
	// Mean expected failures per device (prone and not) ≈ Frequency.
	// The lognormal tail makes this noisy; accept 15%.
	if math.Abs(got-m.Frequency)/m.Frequency > 0.15 {
		t.Errorf("mean expected failures = %.1f, want ≈%.1f", got, m.Frequency)
	}
}

func TestSampleIntensityHeavyTail(t *testing.T) {
	r := rng.New(3)
	m, _ := ByID(30)
	maxSeen, total, prone := 0.0, 0.0, 0
	for i := 0; i < 100000; i++ {
		in := SampleIntensity(r, m, DefaultIntensityParams())
		if in.Prone {
			prone++
			total += in.ExpectedFailures
			if in.ExpectedFailures > maxSeen {
				maxSeen = in.ExpectedFailures
			}
		}
	}
	mean := total / float64(prone)
	if maxSeen < 20*mean {
		t.Errorf("tail too light: max %.0f vs mean %.0f (paper max is 198k vs mean 33)", maxSeen, mean)
	}
}

func TestSampleIntensityNonProneIsZero(t *testing.T) {
	r := rng.New(4)
	m := Model{Prevalence: 0, Frequency: 5}
	for i := 0; i < 100; i++ {
		if in := SampleIntensity(r, m, DefaultIntensityParams()); in.Prone || in.ExpectedFailures != 0 {
			t.Fatal("zero-prevalence model produced failures")
		}
	}
}

func TestSampleIntensityMinimumOneFailure(t *testing.T) {
	r := rng.New(5)
	m, _ := ByID(8) // frequency 2.3, prevalence 0.15%
	for i := 0; i < 200000; i++ {
		in := SampleIntensity(r, m, DefaultIntensityParams())
		if in.Prone && in.ExpectedFailures < 1 {
			t.Fatal("prone device with expected failures < 1")
		}
	}
}

func TestOOSProneFraction(t *testing.T) {
	r := rng.New(6)
	m, _ := ByID(28)
	prone, oos := 0, 0
	for i := 0; i < 100000; i++ {
		in := SampleIntensity(r, m, DefaultIntensityParams())
		if in.Prone {
			prone++
			if in.OOSProne {
				oos++
			}
		}
	}
	got := float64(oos) / float64(prone)
	if math.Abs(got-0.22) > 0.02 {
		t.Errorf("OOS-prone fraction = %.3f, want ≈0.22", got)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	r := rng.New(7)
	const mean = 3.5
	n, total := 200000, 0
	for i := 0; i < n; i++ {
		total += Poisson(r, mean)
	}
	got := float64(total) / float64(n)
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("Poisson(%v) sample mean = %.3f", mean, got)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	r := rng.New(8)
	const mean = 500.0
	n, total := 20000, 0
	for i := 0; i < n; i++ {
		k := Poisson(r, mean)
		if k < 0 {
			t.Fatal("negative Poisson draw")
		}
		total += k
	}
	got := float64(total) / float64(n)
	if math.Abs(got-mean)/mean > 0.01 {
		t.Errorf("Poisson(%v) sample mean = %.1f", mean, got)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := rng.New(9)
	if Poisson(r, 0) != 0 || Poisson(r, -3) != 0 {
		t.Error("non-positive mean should draw 0")
	}
}
