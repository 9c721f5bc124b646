package timp

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/rng"
)

// SensitivityRow is one perturbation of the model's operation parameters
// and the re-optimized outcome — the ablation behind trusting the
// annealed probations ("TIMP works in a principled and flexible manner, so
// it will automatically adapt to pattern changes", §4.3).
type SensitivityRow struct {
	Name        string
	Probations  Probations
	Cost        float64
	DefaultCost float64
}

// Sensitivity re-fits and re-optimizes the model under a set of parameter
// perturbations: baseline, first-op success ±, disruption penalties
// halved/doubled, and operation overheads doubled. All rows share the
// duration samples and the annealing seed. No command prints it yet: its
// only caller is the test that shows the probations adapt.
func Sensitivity(samples []float64, base Options, seed int64, cfg anneal.Config) ([]SensitivityRow, error) {
	perturbations := []struct {
		name   string
		mutate func(Options) Options
	}{
		{"baseline", func(o Options) Options { return o }},
		{"op1-success-0.60", func(o Options) Options { o.OpSuccess[0] = 0.60; return o }},
		{"op1-success-0.90", func(o Options) Options { o.OpSuccess[0] = 0.90; return o }},
		{"penalties-halved", func(o Options) Options {
			for i := range o.OpPenalty {
				o.OpPenalty[i] /= 2
			}
			return o
		}},
		{"penalties-doubled", func(o Options) Options {
			for i := range o.OpPenalty {
				o.OpPenalty[i] *= 2
			}
			return o
		}},
		{"overheads-doubled", func(o Options) Options {
			for i := range o.OpOverhead {
				o.OpOverhead[i] *= 2
			}
			return o
		}},
	}
	out := make([]SensitivityRow, 0, len(perturbations))
	for _, p := range perturbations {
		model, err := New(samples, p.mutate(base))
		if err != nil {
			return nil, fmt.Errorf("timp: sensitivity %s: %w", p.name, err)
		}
		res := model.Optimize(rng.New(seed), cfg)
		out = append(out, SensitivityRow{
			Name:        p.name,
			Probations:  res.Probations,
			Cost:        res.Cost,
			DefaultCost: res.DefaultCost,
		})
	}
	return out, nil
}
