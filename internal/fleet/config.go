package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/android"
	"repro/internal/faultinject"
)

// ScenarioConfig is the JSON shape of a scenario file, using
// human-friendly units (months, seconds) and names (policy and trigger
// strings) instead of Go types.
type ScenarioConfig struct {
	Seed       int64   `json:"seed"`
	Devices    int     `json:"devices"`
	Months     float64 `json:"months,omitempty"`
	BS         int     `json:"base_stations,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Policy     string  `json:"policy,omitempty"`  // vanilla | stability | never5g
	Trigger    string  `json:"trigger,omitempty"` // fixed | timp | "a,b,c" seconds
	DualConn   bool    `json:"dual_connectivity,omitempty"`
	DisableFP  bool    `json:"disable_fp_filter,omitempty"`
	UploadAddr string  `json:"upload_addr,omitempty"`
	// UploadBuffer/UploadSpillDir tune the uploader's bounded backlog; see
	// the matching Scenario fields.
	UploadBuffer   int    `json:"upload_buffer,omitempty"`
	UploadSpillDir string `json:"upload_spill_dir,omitempty"`
	// Faults embeds a fault campaign (same shape as a standalone campaign
	// file; see internal/faultinject).
	Faults *faultinject.CampaignConfig `json:"faults,omitempty"`
}

// LoadScenario reads a JSON scenario file.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	return ParseScenario(f)
}

// ParseScenario decodes a JSON scenario.
func ParseScenario(r io.Reader) (Scenario, error) {
	var cfg ScenarioConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Scenario{}, fmt.Errorf("fleet: parse scenario: %w", err)
	}
	return cfg.Scenario()
}

// Scenario converts the config into a runnable scenario.
func (cfg ScenarioConfig) Scenario() (Scenario, error) {
	s := Scenario{
		Seed:              cfg.Seed,
		NumDevices:        cfg.Devices,
		NumBS:             cfg.BS,
		Workers:           cfg.Workers,
		DualConnectivity:  cfg.DualConn,
		DisableFPFilter:   cfg.DisableFP,
		UploadAddr:        cfg.UploadAddr,
		UploadBufferLimit: cfg.UploadBuffer,
		UploadSpillDir:    cfg.UploadSpillDir,
	}
	if cfg.Months > 0 {
		s.Window = time.Duration(cfg.Months * 30 * 24 * float64(time.Hour))
	}
	switch cfg.Policy {
	case "", "vanilla":
		s.Policy = PolicyVanilla
	case "stability":
		s.Policy = PolicyStability
	case "never5g":
		s.Policy = PolicyNever5G
	default:
		return Scenario{}, fmt.Errorf("fleet: unknown policy %q", cfg.Policy)
	}
	switch cfg.Trigger {
	case "", "fixed":
		s.Trigger = android.DefaultFixedTrigger
	case "timp":
		s.Trigger = android.PaperTIMPTrigger
	default:
		var a, b, c float64
		if _, err := fmt.Sscanf(cfg.Trigger, "%f,%f,%f", &a, &b, &c); err != nil {
			return Scenario{}, fmt.Errorf("fleet: trigger %q is not fixed|timp|\"a,b,c\" seconds", cfg.Trigger)
		}
		if a <= 0 || b <= 0 || c <= 0 {
			return Scenario{}, fmt.Errorf("fleet: trigger probations must be positive")
		}
		s.Trigger = android.ProfileTrigger{
			time.Duration(a * float64(time.Second)),
			time.Duration(b * float64(time.Second)),
			time.Duration(c * float64(time.Second)),
		}
	}
	if cfg.Faults != nil {
		campaign, err := cfg.Faults.Campaign()
		if err != nil {
			return Scenario{}, err
		}
		s.Faults = campaign
	}
	return s, nil
}
