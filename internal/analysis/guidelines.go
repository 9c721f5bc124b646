package analysis

import (
	"fmt"
	"strings"

	"repro/internal/simnet"
	"repro/internal/telephony"
)

// Audience is who a guideline is addressed to (§4.1 addresses phone
// vendors, mobile ISPs, and OS developers).
type Audience string

// Guideline audiences.
const (
	AudienceVendor Audience = "phone-vendor"
	AudienceISP    Audience = "mobile-isp"
	AudienceOS     Audience = "os-developer"
)

// Guideline is one data-backed recommendation.
type Guideline struct {
	Audience Audience
	Finding  string
	Advice   string
	// Evidence quantifies the finding from this dataset.
	Evidence string
}

// guidelinesFrom derives the paper's §4.1 guidance from the measured
// dataset: each recommendation is emitted only when its supporting finding
// actually holds in the data, with the measured numbers attached as
// evidence.
func guidelinesFrom(src source) []Guideline {
	var out []Guideline

	// 5G modules raise failure rates → vendors should validate harder.
	if fiveG, non5G := src.By5G(); fiveG.Devices > 0 && non5G.Devices > 0 &&
		fiveG.Frequency > non5G.Frequency {
		out = append(out, Guideline{
			Audience: AudienceVendor,
			Finding:  "5G phones fail more prevalently and frequently than non-5G phones",
			Advice:   "validate new 5G modules' coordination and compatibility with existing hardware/software before rollout",
			Evidence: fmt.Sprintf("5G: %.1f failures/phone vs non-5G Android 10: %.1f", fiveG.Frequency, non5G.Frequency),
		})
	}

	// Newer OS raises failure rates → test RAT policies before pushing.
	if a9, a10 := src.ByAndroidVersion(); a9.Devices > 0 && a10.Devices > 0 &&
		a10.Frequency > a9.Frequency {
		out = append(out, Guideline{
			Audience: AudienceOS,
			Finding:  "Android 10 phones fail more than Android 9 phones (blind 5G preference, young code)",
			Advice:   "test new characteristics such as the 4G/5G switching policy before pushing a new OS to phone models",
			Evidence: fmt.Sprintf("Android 10 (non-5G): %.1f failures/phone vs Android 9: %.1f", a10.Frequency, a9.Frequency),
		})
	}

	// Idle 3G → ISPs can offload onto it.
	rat := map[telephony.RAT]RATPrevalence{}
	for _, r := range src.Figure14() {
		rat[r.RAT] = r
	}
	if r3, r4 := rat[telephony.RAT3G], rat[telephony.RAT4G]; r3.DwellHours > 0 &&
		r3.Prevalence < r4.Prevalence {
		out = append(out, Guideline{
			Audience: AudienceISP,
			Finding:  "3G base stations are relatively idle and fail less than 2G/4G",
			Advice:   "make better use of idle 3G infrastructure to relieve busy 2G/4G base stations",
			Evidence: fmt.Sprintf("3G: %.2f failures/1000h vs 4G: %.2f", r3.Prevalence, r4.Prevalence),
		})
	}

	// Level-5 anomaly at dense deployments → control hub BS density.
	levels := src.Figure15()
	anomaly := true
	for l := 1; l <= 4; l++ {
		if levels[5].Normalized <= levels[l].Normalized {
			anomaly = false
		}
	}
	if anomaly {
		out = append(out, Guideline{
			Audience: AudienceISP,
			Finding:  "excellent (level-5) RSS carries a higher normalized failure likelihood than levels 1-4 — dense uncoordinated deployment around transport hubs",
			Advice:   "control BS deployment density in public-transport areas and coordinate cross-ISP infrastructure sharing",
			Evidence: fmt.Sprintf("normalized prevalence level-5: %.4f vs level-4: %.4f", levels[5].Normalized, levels[4].Normalized),
		})
	}

	// ISP-B coverage gap.
	isps := src.ByISP()
	if b, c := isps[simnet.ISPB], isps[simnet.ISPC]; b.Devices > 0 &&
		b.Prevalence > c.Prevalence {
		out = append(out, Guideline{
			Audience: AudienceISP,
			Finding:  "ISP-B subscribers see the highest failure prevalence (inferior signal coverage from higher-frequency bands)",
			Advice:   "densify coverage or acquire lower-frequency spectrum where failures concentrate",
			Evidence: fmt.Sprintf("prevalence: %s %.1f%% vs %s %.1f%%", b.Name, b.Prevalence*100, c.Name, c.Prevalence*100),
		})
	}

	// Stall recovery is too conservative when self-healing dominates.
	if f := src.Figure10(); f.Under10 > 0.5 {
		out = append(out, Guideline{
			Audience: AudienceOS,
			Finding:  "most Data_Stall failures self-heal long before the one-minute probation expires",
			Advice:   "replace the fixed one-minute recovery trigger with a data-driven (TIMP) trigger",
			Evidence: fmt.Sprintf("%.0f%% of stalls self-fix within 10 s; first-stage cleanup fixes %.0f%% once executed", f.Under10*100, f.FirstOpFixRate*100),
		})
	}
	return out
}

// RenderGuidelines formats the recommendations.
func RenderGuidelines(gs []Guideline) string {
	var b strings.Builder
	for _, g := range gs {
		fmt.Fprintf(&b, "[%s]\n  finding:  %s\n  advice:   %s\n  evidence: %s\n", g.Audience, g.Finding, g.Advice, g.Evidence)
	}
	return b.String()
}
