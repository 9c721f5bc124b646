// Package timp implements the time-inhomogeneous Markov process model of
// Android's three-stage Data_Stall recovery (Figure 18, Equation 1) and
// the annealing-based search for the probation triple (Pro0, Pro1, Pro2)
// that minimizes the expected recovery cost.
//
// The model follows the paper's state process: after a stall is detected
// (S0), the device either self-recovers within the current probation
// window — with a probability P_{i→e}(t) that depends on the elapsed time,
// hence *time-inhomogeneous* — or the engine escalates to the next stage
// (S1 cleanup, S2 re-register, S3 radio restart). Entering a stage
// executes its recovery operation, which fixes the stall with the
// empirical success probability (75% for the first-stage cleanup, §3.2)
// at the cost of an execution overhead and a user-disruption penalty; a
// failed operation tears connection state down, so the natural-recovery
// clock restarts (the Markov property of Figure 18: the transition out of
// S_i depends only on S_i).
//
// P_{i→e}(t) is estimated from measured Data_Stall self-recovery times
// (Figure 10's distribution), exactly as the paper estimates it from its
// duration dataset.
package timp

import (
	"errors"
	"math"
	"time"

	"repro/internal/anneal"
	"repro/internal/rng"
	"repro/internal/stats"
)

// NumStages is the number of recovery operations.
const NumStages = 3

// Probations is a probation triple in seconds.
type Probations [NumStages]float64

// Durations converts to time.Durations.
func (p Probations) Durations() [NumStages]time.Duration {
	var out [NumStages]time.Duration
	for i, v := range p {
		out[i] = time.Duration(v * float64(time.Second))
	}
	return out
}

// DefaultProbations is vanilla Android's one-minute triple.
var DefaultProbations = Probations{60, 60, 60}

// Options configures the model's operation parameters.
type Options struct {
	// OpSuccess is the per-stage fix probability (paper: cleanup fixes
	// 75% of cases once executed).
	OpSuccess [NumStages]float64
	// OpOverhead is each operation's execution time in seconds.
	OpOverhead [NumStages]float64
	// OpPenalty is each operation's user-disruption penalty in seconds
	// (cleanup drops the connection, re-registration detaches from the
	// network, a radio restart blanks the modem).
	OpPenalty [NumStages]float64
	// TailCap truncates the natural-recovery integral, seconds.
	TailCap float64
}

// DefaultOptions returns the calibration used in the reproduction.
func DefaultOptions() Options {
	return Options{
		OpSuccess:  [NumStages]float64{0.75, 0.85, 0.95},
		OpOverhead: [NumStages]float64{1, 3, 8},
		OpPenalty:  [NumStages]float64{12, 30, 60},
		TailCap:    3600,
	}
}

// Model is a fitted TIMP recovery model.
type Model struct {
	ecdf *stats.ECDF
	opts Options

	// grid caches the CDF at gridStep resolution over [0, gridMax] so the
	// annealing loop's millions of CDF lookups are O(1).
	grid []float64
	// tail caches the terminal-stage integral ∫_0^TailCap S(t) dt.
	tail float64
}

const (
	gridStep = 0.1
	gridMax  = 96.0
)

// ErrNoData is returned when no positive duration samples are supplied.
var ErrNoData = errors.New("timp: no duration samples")

// New fits a model to natural self-recovery durations (seconds).
func New(samples []float64, opts Options) (*Model, error) {
	var clean []float64
	for _, s := range samples {
		if s > 0 && !math.IsNaN(s) && !math.IsInf(s, 0) {
			clean = append(clean, s)
		}
	}
	if len(clean) == 0 {
		return nil, ErrNoData
	}
	if opts.TailCap <= 0 {
		opts.TailCap = DefaultOptions().TailCap
	}
	for i := 0; i < NumStages; i++ {
		if opts.OpSuccess[i] <= 0 || opts.OpSuccess[i] > 1 {
			opts.OpSuccess[i] = DefaultOptions().OpSuccess[i]
		}
		if opts.OpOverhead[i] < 0 {
			opts.OpOverhead[i] = 0
		}
		if opts.OpPenalty[i] < 0 {
			opts.OpPenalty[i] = 0
		}
	}
	m := &Model{ecdf: stats.NewECDF(clean), opts: opts}
	n := int(gridMax/gridStep) + 1
	m.grid = make([]float64, n)
	for i := range m.grid {
		m.grid[i] = m.ecdf.P(float64(i) * gridStep)
	}
	m.tail = m.integrateTail(opts.TailCap)
	return m, nil
}

// RecoveryCDF returns P_{i→e}(t): the probability the device has
// self-recovered within t seconds of entering a stage.
func (m *Model) RecoveryCDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t < gridMax {
		pos := t / gridStep
		i := int(pos)
		frac := pos - float64(i)
		// Each float64(...) in this file rounds a product before it is
		// added, which forbids an FMA (arm64): same bits on every GOARCH.
		return float64(m.grid[i]*(1-frac)) + float64(m.grid[i+1]*frac)
	}
	return m.ecdf.P(t)
}

// integrateTail computes ∫_0^cap S(t) dt directly on the ECDF.
func (m *Model) integrateTail(cap float64) float64 {
	const steps = 480
	h := cap / steps
	sum := 0.0
	for k := 0; k < steps; k++ {
		t0 := float64(float64(k) * h)
		t1 := t0 + h
		s0 := 1 - m.ecdf.P(t0)
		s1 := 1 - m.ecdf.P(t1)
		sum += float64((s0 + s1) / 2 * h)
	}
	return sum
}

// ExpectedCost evaluates the model objective for a probation triple: the
// expected user-perceived recovery cost in seconds.
//
// The recursion is the time-inhomogeneous part of the model: the
// probability of self-recovery during stage i's probation is conditional
// on having survived to the stage's entry time a_i, i.e.
// P_{i→e}(t) = (F(a_i+t) − F(a_i)) / S(a_i). With the heavy-tailed
// Figure 10 distribution, survivors are increasingly the long-outage kind,
// so the value of passive waiting changes from stage to stage — exactly
// why a traditional (stationary) Markov chain cannot model the process.
// Each stage's operation then fires with its overhead and disruption
// penalty, fixing the stall with probability OpSuccess[i].
func (m *Model) ExpectedCost(pro Probations) float64 {
	return m.stageCost(0, 0, pro)
}

// stageCost returns V_i(a): expected additional cost entering stage i at
// elapsed time a.
func (m *Model) stageCost(stage int, a float64, pro Probations) float64 {
	sa := 1 - m.RecoveryCDF(a)
	if sa <= 1e-12 {
		return 0 // recovery certain by now
	}
	if stage == NumStages {
		// Terminal: all operations failed; wait out the conditional tail.
		return m.conditionalWait(a, m.opts.TailCap, sa)
	}
	p := pro[stage]
	if p < 0 {
		p = 0
	}
	wait := m.conditionalWait(a, p, sa)
	surv := (1 - m.RecoveryCDF(a+p)) / sa
	if surv < 0 {
		surv = 0
	}
	next := m.stageCost(stage+1, a+p+m.opts.OpOverhead[stage], pro)
	return wait + float64(surv*(m.opts.OpPenalty[stage]+m.opts.OpOverhead[stage]+
		float64((1-m.opts.OpSuccess[stage])*next)))
}

// conditionalWait returns ∫_0^w S(a+t)/S(a) dt: expected waiting within a
// window of length w given survival to elapsed time a.
func (m *Model) conditionalWait(a, w, sa float64) float64 {
	if w <= 0 {
		return 0
	}
	const steps = 120
	h := w / steps
	sum := 0.0
	for k := 0; k < steps; k++ {
		t0 := a + float64(float64(k)*h)
		t1 := t0 + h
		s0 := 1 - m.RecoveryCDF(t0)
		s1 := 1 - m.RecoveryCDF(t1)
		sum += float64((s0 + s1) / 2 * h)
	}
	return sum / sa
}

// DefaultCost evaluates the vanilla Android trigger (60 s, 60 s, 60 s).
func (m *Model) DefaultCost() float64 { return m.ExpectedCost(DefaultProbations) }

// OptimizeResult is the outcome of the annealing search.
type OptimizeResult struct {
	// Probations is the optimal triple (the paper's deployment found
	// 21 s, 6 s, 16 s on its dataset).
	Probations Probations
	// Cost is the expected recovery cost at the optimum.
	Cost float64
	// DefaultCost is the cost of the vanilla one-minute trigger (the
	// paper reports 38 s vs the optimized 27.8 s).
	DefaultCost float64
}

// Improvement returns the relative cost reduction versus the default.
func (r OptimizeResult) Improvement() float64 {
	if r.DefaultCost <= 0 {
		return 0
	}
	return 1 - r.Cost/r.DefaultCost
}

// Optimize searches for the probation triple minimizing ExpectedCost with
// simulated annealing over [0.5 s, 90 s] per stage.
func (m *Model) Optimize(r *rng.Source, cfg anneal.Config) OptimizeResult {
	lo := []float64{0.5, 0.5, 0.5}
	hi := []float64{90, 90, 90}
	x, v := anneal.Minimize(r, lo, hi, func(x []float64) float64 {
		return m.ExpectedCost(Probations{x[0], x[1], x[2]})
	}, cfg)
	return OptimizeResult{
		Probations:  Probations{x[0], x[1], x[2]},
		Cost:        v,
		DefaultCost: m.DefaultCost(),
	}
}
