package device

import (
	"math"

	"repro/internal/rng"
)

// Intensity is a device's sampled failure behaviour over the study window.
type Intensity struct {
	// Prone is false for devices that never fail (77% of the fleet).
	Prone bool
	// ExpectedFailures is the device's expected failure count across the
	// whole study window (Poisson mean), zero when not prone.
	ExpectedFailures float64
	// OOSProne marks the minority of failing devices that experience
	// Out_of_Service events (only ~5% of all phones see any, §3.1).
	OOSProne bool
}

// IntensityParams shapes the per-device heterogeneity.
type IntensityParams struct {
	// TailSigma is the lognormal sigma of per-device intensity among
	// failure-prone devices; larger values lengthen the tail (the paper's
	// maximum is 198,228 failures on a single phone).
	TailSigma float64
	// OOSProneFraction is the fraction of failing devices that see
	// Out_of_Service events (~5% of all phones / ~23% prevalence).
	OOSProneFraction float64
}

// DefaultIntensityParams returns the calibration used by the standard
// scenario.
func DefaultIntensityParams() IntensityParams {
	return IntensityParams{TailSigma: 1.3, OOSProneFraction: 0.22}
}

// SampleIntensity draws a device's failure intensity for its model:
// the device fails at all with probability Prevalence, and failing
// devices draw a lognormal intensity whose mean is Frequency/Prevalence,
// reproducing both Table 1 columns simultaneously.
func SampleIntensity(r *rng.Source, m Model, p IntensityParams) Intensity {
	if p.TailSigma <= 0 {
		p.TailSigma = DefaultIntensityParams().TailSigma
	}
	if p.OOSProneFraction <= 0 {
		p.OOSProneFraction = DefaultIntensityParams().OOSProneFraction
	}
	if m.Prevalence <= 0 || m.Frequency <= 0 {
		return Intensity{}
	}
	if !r.Bool(m.Prevalence) {
		return Intensity{}
	}
	meanGivenProne := m.Frequency / m.Prevalence
	// Lognormal with E[X] = meanGivenProne: mu = ln(mean) - sigma^2/2.
	// float64(...) rounds the product first, forbidding an FMA (arm64).
	mu := math.Log(meanGivenProne) - float64(p.TailSigma*p.TailSigma/2)
	expected := r.LogNormal(mu, p.TailSigma)
	// A prone device must realistically produce at least one failure;
	// clamp the Poisson mean away from zero.
	if expected < 1 {
		expected = 1
	}
	return Intensity{
		Prone:            true,
		ExpectedFailures: expected,
		OOSProne:         r.Bool(p.OOSProneFraction),
	}
}

// Poisson draws a Poisson variate with the given mean. Knuth's method for
// small means, normal approximation for large ones (the extreme per-device
// counts make the exact method unusable).
func Poisson(r *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}
