package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// A run directory is the serializable form of a fleet Result, so cmd tools
// can simulate once and analyze many times. It is a trace.SegStore — the
// events as v3 frames in segment files, exactly what a collector's
// -store-dir holds, so whatever reads one reads the other — plus one
// context file carrying everything a Result holds besides its events. A
// collector's store is a run directory without the context file.

// contextName is the context file beside the segments (OpenSegStore
// ignores file names it does not know).
const contextName = "context.gob"

// runChunk is the events-per-frame size SaveResult dumps a dataset in.
const runChunk = 4096

// runContext is the content of the context file, gob encoded.
type runContext struct {
	// ScenarioSeed etc. record how the run was produced; a loaded Result
	// reports them in Provenance.
	ScenarioSeed int64
	NumDevices   int
	Window       time.Duration
	PolicyName   string
	TriggerName  string

	Population  Population
	Transitions TransitionMatrix
	Dwell       DwellStats
	Stations    []*simnet.BaseStation
	Monitor     monitor.Stats
	Overhead    OverheadSummary
}

// context extracts what a Result holds besides its events.
func (r *Result) context() *runContext {
	return &runContext{
		ScenarioSeed: r.Scenario.Seed,
		NumDevices:   r.Scenario.NumDevices,
		Window:       r.Scenario.Window,
		PolicyName:   r.Scenario.Policy.String(),
		TriggerName:  r.Scenario.Trigger.Name(),
		Population:   r.Population,
		Transitions:  r.Transitions,
		Dwell:        r.Dwell,
		Stations:     r.Network.Stations,
		Monitor:      r.Monitor,
		Overhead:     r.Overhead,
	}
}

// restore rebuilds an analyzable Result around an empty dataset. The
// scenario carries only the recorded identifying fields; it cannot be
// re-run as-is.
func (c *runContext) restore() *Result {
	return &Result{
		Scenario:    Scenario{Seed: c.ScenarioSeed, NumDevices: c.NumDevices, Window: c.Window}.withDefaults(),
		Dataset:     trace.NewDataset(),
		Population:  c.Population,
		Transitions: c.Transitions,
		Dwell:       c.Dwell,
		Monitor:     c.Monitor,
		Network:     simnet.FromStations(c.Stations),
		Overhead:    c.Overhead,
		Provenance: fmt.Sprintf("seed=%d devices=%d window=%v policy=%s trigger=%s",
			c.ScenarioSeed, c.NumDevices, c.Window, c.PolicyName, c.TriggerName),
	}
}

// CheckRunDir reports whether SaveResult may write dir: a run directory is
// written once, so dir must be missing or empty.
func CheckRunDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: run directory: %w", err)
	}
	if len(entries) > 0 {
		return fmt.Errorf("fleet: run directory %s is not empty", dir)
	}
	return nil
}

// SaveResult persists a result as the run directory dir: the events in
// Dataset.Each order as unsequenced frames (DeviceID 0, Seq 0: replayed
// and indexed like any frame, never a dedup mark) of runChunk events, then
// the context file.
func SaveResult(dir string, r *Result) error {
	if err := CheckRunDir(dir); err != nil {
		return err
	}
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, nil)
	if err != nil {
		return err
	}
	for events := r.Dataset.Events(); len(events) > 0 && err == nil; {
		n := min(len(events), runChunk)
		err = st.Append(&trace.Batch{Events: events[:n]})
		events = events[n:]
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fleet: save run: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.context()); err != nil {
		return fmt.Errorf("fleet: encode run context: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, contextName), buf.Bytes(), 0o644)
}

// LoadContext reads only the context file of run directory dir: the
// Result SaveResult was given, around an empty dataset. No event frame is
// decoded. A directory without a context file (a collector's store) is an
// os.ErrNotExist error.
func LoadContext(dir string) (*Result, error) {
	raw, err := os.ReadFile(filepath.Join(dir, contextName))
	if err != nil {
		return nil, err
	}
	var c runContext
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		return nil, fmt.Errorf("fleet: decode run context: %w", err)
	}
	return c.restore(), nil
}

// LoadResult reads run directory dir — one SaveResult wrote, or any
// segment store: a directory without a context file yields its events
// around the zero-value context. The store is opened read-only, so dir may
// belong to a running collector; events keep their file order.
func LoadResult(dir string) (*Result, error) {
	res, err := LoadContext(dir)
	if errors.Is(err, os.ErrNotExist) {
		res, err = new(runContext).restore(), nil
		res.Provenance = "no run context (a collector's store)"
	}
	if err != nil {
		return nil, err
	}
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, trace.ReplayInto(res.Dataset))
	if err != nil {
		return nil, err
	}
	res.Provenance += fmt.Sprintf(", %d events in %d segments", res.Dataset.Len(), len(st.Segments()))
	return res, st.Close()
}
