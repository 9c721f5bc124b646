package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
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
	// Faults embeds a fault campaign; see internal/faultinject.
	Faults *faultinject.CampaignConfig `json:"faults,omitempty"`
	// Backend, when set, uploads every event through an in-process
	// collector tier under the campaign's transport faults. Only cellcheck
	// runs one; cellsim, cellrepro and cellsweep refuse a document that
	// has it.
	Backend *Backend `json:"backend,omitempty"`
}

// Backend is a scenario document's in-process collector tier: Collectors
// (at least one) store-backed collectors behind a consistent-hash ring,
// and a Kill action for one of them mid-campaign.
type Backend struct {
	Collectors int    `json:"collectors"`
	Kill       string `json:"kill,omitempty"`
}

// The kill actions a Backend may name.
const (
	// KillRestart SIGKILLs a collector and reboots it from its store on
	// the same address.
	KillRestart = "restart"
	// KillFailover SIGKILLs a collector and hands its devices to the
	// survivors; it needs at least two collectors.
	KillFailover = "failover"
)

// LoadScenario reads a JSON scenario document.
func LoadScenario(path string) (Scenario, *Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, nil, err
	}
	defer f.Close()
	s, b, err := ParseScenario(f)
	if err != nil {
		return Scenario{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, b, nil
}

// ParseScenario decodes a JSON scenario document: the scenario, and its
// backend (nil when the document has none). Unknown fields and anything
// after the document are errors.
func ParseScenario(r io.Reader) (Scenario, *Backend, error) {
	var cfg ScenarioConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Scenario{}, nil, fmt.Errorf("fleet: parse scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Scenario{}, nil, fmt.Errorf("fleet: trailing data after scenario document")
	}
	s, err := cfg.Scenario()
	if err != nil {
		return Scenario{}, nil, err
	}
	b, err := cfg.backend(s)
	if err != nil {
		return Scenario{}, nil, err
	}
	return s, b, nil
}

// backend checks the document's backend against its scenario.
// Network-fault rules need an upload path to fault, and a backend needs a
// campaign to run.
func (cfg ScenarioConfig) backend(s Scenario) (*Backend, error) {
	b := cfg.Backend
	switch {
	case b == nil:
		if err := s.checkUploads(); err != nil {
			return nil, fmt.Errorf("%w: add a backend (or upload_addr)", err)
		}
		return nil, nil
	case s.Faults == nil:
		return nil, fmt.Errorf("fleet: a backend runs a fault campaign: add faults")
	case s.UploadAddr != "":
		return nil, fmt.Errorf("fleet: upload_addr configures cellsim's uploads; a backend's uploads are its own")
	case b.Collectors < 1:
		return nil, fmt.Errorf("fleet: backend collectors %d: want 1 or more", b.Collectors)
	case b.Kill == KillFailover && b.Collectors < 2:
		return nil, fmt.Errorf("fleet: kill %q needs survivors to take over: give the backend 2 or more collectors", b.Kill)
	case b.Kill != "" && b.Kill != KillRestart && b.Kill != KillFailover:
		return nil, fmt.Errorf("fleet: backend kill %q: want %q or %q", b.Kill, KillRestart, KillFailover)
	}
	return b, nil
}

// nanos converts a float count of nanoseconds to a Duration, refusing NaN,
// anything below one nanosecond, and anything a Duration cannot hold.
func nanos(x float64) (time.Duration, bool) {
	if !(x >= 1 && x < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(x), true
}

// Scenario converts the config into a runnable scenario. A zero count,
// window or trigger means the default; a negative one is an error, not a
// silent default.
func (cfg ScenarioConfig) Scenario() (Scenario, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"devices", cfg.Devices}, {"base_stations", cfg.BS}, {"workers", cfg.Workers}} {
		if f.v < 0 {
			return Scenario{}, fmt.Errorf("fleet: %s %d is negative (0 means the default)", f.name, f.v)
		}
	}
	s := Scenario{
		Seed:             cfg.Seed,
		NumDevices:       cfg.Devices,
		NumBS:            cfg.BS,
		Workers:          cfg.Workers,
		DualConnectivity: cfg.DualConn,
		DisableFPFilter:  cfg.DisableFP,
		UploadAddr:       cfg.UploadAddr,
	}
	if cfg.Months != 0 {
		w, ok := nanos(cfg.Months * 30 * 24 * float64(time.Hour))
		if !ok {
			return Scenario{}, fmt.Errorf("fleet: months %g is not a positive window a time.Duration holds", cfg.Months)
		}
		s.Window = w
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
		parts := strings.Split(cfg.Trigger, ",")
		if len(parts) != android.NumRecoveryOps {
			return Scenario{}, fmt.Errorf("fleet: trigger %q is not fixed|timp|\"a,b,c\" seconds", cfg.Trigger)
		}
		var pt android.ProfileTrigger
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return Scenario{}, fmt.Errorf("fleet: trigger %q is not fixed|timp|\"a,b,c\" seconds", cfg.Trigger)
			}
			d, ok := nanos(v * float64(time.Second))
			if !ok {
				return Scenario{}, fmt.Errorf("fleet: trigger probation %q must be a positive number of seconds a time.Duration holds", p)
			}
			pt[i] = d
		}
		s.Trigger = pt
	}
	if cfg.Faults != nil {
		campaign, err := cfg.Faults.Campaign()
		if err != nil {
			return Scenario{}, err
		}
		if err := campaign.CheckWindow(s.Normalized().Window); err != nil {
			return Scenario{}, err
		}
		s.Faults = campaign
	}
	return s, nil
}
