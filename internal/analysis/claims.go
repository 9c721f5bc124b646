package analysis

import (
	"fmt"
	"strings"

	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// Claim is one falsifiable statement from the paper that the reproduction
// must satisfy in shape.
type Claim struct {
	ID    string
	Text  string
	check func(src source) (bool, string)
}

// ClaimResult is a checked claim.
type ClaimResult struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// Claims returns the paper's checkable findings, in paper order.
func Claims() []Claim {
	return []Claim{
		{"3.1-prevalence", "cellular failures are prevalent: ~23% of devices see at least one (0.15%–45% per model)",
			func(src source) (bool, string) {
				f := src.Figure3()
				p := 1 - f.ZeroShare
				return p > 0.14 && p < 0.32, fmt.Sprintf("prevalence %.1f%%", p*100)
			}},
		{"3.1-frequency", "an average of ~33 failures occur per device over the window",
			func(src source) (bool, string) {
				f := src.Figure3()
				return f.Mean > 15 && f.Mean < 70, fmt.Sprintf("%.1f failures/phone", f.Mean)
			}},
		{"3.1-kind-mix", "16 setup / 14 stall / 3 OOS per phone on average (setup > stall > OOS)",
			func(src source) (bool, string) {
				f := src.Figure3()
				s, st, o := f.MeanPerKind[failure.DataSetupError], f.MeanPerKind[failure.DataStall], f.MeanPerKind[failure.OutOfService]
				return s > st && st > o, fmt.Sprintf("%.1f / %.1f / %.1f", s, st, o)
			}},
		{"3.1-oos-rare", "95% of phones never see an Out_of_Service event",
			func(src source) (bool, string) {
				f := src.Figure3()
				return f.OOSFreeShare > 0.90, fmt.Sprintf("%.1f%% OOS-free", f.OOSFreeShare*100)
			}},
		{"3.1-duration-skew", "durations are highly skewed: most failures short, multi-hour tail",
			func(src source) (bool, string) {
				d := src.Figure4()
				return d.Under30 > 0.6 && d.Max > 100*d.Median,
					fmt.Sprintf("%.1f%% under 30s, max %v vs median %v", d.Under30*100, d.Max, d.Median)
			}},
		{"3.1-stall-dominates", "Data_Stall dominates total failure duration",
			func(src source) (bool, string) {
				d := src.Figure4()
				return d.StallShareOfDuration > 0.5, fmt.Sprintf("stall share %.1f%%", d.StallShareOfDuration*100)
			}},
		{"3.2-5g-worse", "5G phones fail more prevalently and frequently than non-5G phones",
			func(src source) (bool, string) {
				f, n := src.By5G()
				return f.Prevalence > n.Prevalence && f.Frequency > n.Frequency,
					fmt.Sprintf("5G %.1f%%/%.1f vs non-5G %.1f%%/%.1f", f.Prevalence*100, f.Frequency, n.Prevalence*100, n.Frequency)
			}},
		{"3.2-android10-worse", "Android 10 phones fail more than Android 9 phones",
			func(src source) (bool, string) {
				a9, a10 := src.ByAndroidVersion()
				return a10.Prevalence > a9.Prevalence && a10.Frequency > a9.Frequency,
					fmt.Sprintf("A10 %.1f%%/%.1f vs A9 %.1f%%/%.1f", a10.Prevalence*100, a10.Frequency, a9.Prevalence*100, a9.Frequency)
			}},
		{"3.2-table2-top", "GPRS_REGISTRATION_FAIL is the most common setup-error code (~12.8%)",
			func(src source) (bool, string) {
				rows := src.Table2(3)
				for _, r := range rows {
					if r.Cause == telephony.CauseGPRSRegistrationFail {
						return r.Share > 0.08, fmt.Sprintf("share %.1f%% (rank within top 3)", r.Share*100)
					}
				}
				return false, "not in the top 3"
			}},
		{"3.2-stall-autofix", "~60% of Data_Stall failures fix themselves within 10 seconds",
			func(src source) (bool, string) {
				f := src.Figure10()
				return f.Under10 > 0.5 && f.Under10 < 0.72, fmt.Sprintf("%.1f%% within 10s", f.Under10*100)
			}},
		{"3.2-op1-effective", "the first-stage cleanup fixes ~75% of stalls once executed",
			func(src source) (bool, string) {
				f := src.Figure10()
				return f.FirstOpFixRate > 0.6 && f.FirstOpFixRate < 0.9, fmt.Sprintf("%.1f%%", f.FirstOpFixRate*100)
			}},
		{"3.3-zipf", "failures per BS follow a Zipf-like skewed distribution",
			func(src source) (bool, string) {
				r := src.Figure11(100)
				return r.Fit.A > 0.3 && r.Fit.R2 > 0.5 && float64(r.Max) > 10*r.Mean,
					fmt.Sprintf("a=%.2f R²=%.2f max/mean=%.0f", r.Fit.A, r.Fit.R2, float64(r.Max)/r.Mean)
			}},
		{"3.3-isp-order", "ISP prevalence orders B > A > C (27.1 / 20.1 / 14.7 in the paper)",
			func(src source) (bool, string) {
				g := src.ByISP()
				a, b, c := g[simnet.ISPA], g[simnet.ISPB], g[simnet.ISPC]
				return b.Prevalence > a.Prevalence && a.Prevalence > c.Prevalence,
					fmt.Sprintf("B %.1f%% A %.1f%% C %.1f%%", b.Prevalence*100, a.Prevalence*100, c.Prevalence*100)
			}},
		{"3.3-idle-3g", "3G BSes see lower failure prevalence than 2G and 4G; 5G highest",
			func(src source) (bool, string) {
				m := map[telephony.RAT]float64{}
				for _, r := range src.Figure14() {
					m[r.RAT] = r.Prevalence
				}
				ok := m[telephony.RAT3G] < m[telephony.RAT2G] &&
					m[telephony.RAT3G] < m[telephony.RAT4G] &&
					m[telephony.RAT5G] > m[telephony.RAT4G]
				return ok, fmt.Sprintf("2G %.1f 3G %.1f 4G %.1f 5G %.1f /1000h",
					m[telephony.RAT2G], m[telephony.RAT3G], m[telephony.RAT4G], m[telephony.RAT5G])
			}},
		{"3.3-level5-anomaly", "normalized prevalence falls from level 0 to 4, then jumps at level 5",
			func(src source) (bool, string) {
				lv := src.Figure15()
				for l := 1; l <= 4; l++ {
					if lv[l].Normalized >= lv[l-1].Normalized {
						return false, fmt.Sprintf("not decreasing at level %d", l)
					}
				}
				for l := 1; l <= 4; l++ {
					if lv[5].Normalized <= lv[l].Normalized {
						return false, fmt.Sprintf("level-5 below level-%d", l)
					}
				}
				return true, fmt.Sprintf("level-5 %.4f vs level-4 %.4f", lv[5].Normalized, lv[4].Normalized)
			}},
		{"4.2-transition-cliff", "4G→5G transitions into level-0 raise failure likelihood drastically",
			func(src source) (bool, string) {
				p := figure17(src.input(), telephony.RAT4G, telephony.RAT5G)
				var maxJ0, maxRest float64
				for i := 0; i < telephony.NumSignalLevels; i++ {
					if p.Observed[i][0] && p.Increase[i][0] > maxJ0 {
						maxJ0 = p.Increase[i][0]
					}
					for j := 1; j < telephony.NumSignalLevels; j++ {
						if p.Observed[i][j] && p.Increase[i][j] > maxRest {
							maxRest = p.Increase[i][j]
						}
					}
				}
				return maxJ0 > maxRest, fmt.Sprintf("level-0 column max %+.3f vs others %+.3f", maxJ0, maxRest)
			}},
	}
}

func checkClaimsFrom(src source) []ClaimResult {
	claims := Claims()
	out := make([]ClaimResult, 0, len(claims))
	for _, c := range claims {
		ok, detail := c.check(src)
		out = append(out, ClaimResult{ID: c.ID, Text: c.Text, Pass: ok, Detail: detail})
	}
	return out
}

// RenderClaims prints the scorecard.
func RenderClaims(rs []ClaimResult) string {
	var b strings.Builder
	pass := 0
	for _, r := range rs {
		mark := "FAIL"
		if r.Pass {
			mark = "PASS"
			pass++
		}
		fmt.Fprintf(&b, "[%s] %-22s %s\n%24s measured: %s\n", mark, r.ID, r.Text, "", r.Detail)
	}
	fmt.Fprintf(&b, "%d/%d claims reproduced\n", pass, len(rs))
	return b.String()
}
