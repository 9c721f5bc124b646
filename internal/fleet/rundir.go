package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/failure"
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
	NumBS        int
	Window       time.Duration
	PolicyName   string
	TriggerName  string

	Context Context
}

// context extracts what a Result holds besides its events.
func (r *Result) context() *runContext {
	return &runContext{
		ScenarioSeed: r.Scenario.Seed,
		NumDevices:   r.Scenario.NumDevices,
		NumBS:        r.Scenario.NumBS,
		Window:       r.Scenario.Window,
		PolicyName:   r.Scenario.Policy.String(),
		TriggerName:  r.Scenario.Trigger.Name(),
		Context:      r.Context,
	}
}

// restore rebuilds a Result without events. The scenario carries only the
// recorded identifying fields; it cannot be re-run as-is.
func (c *runContext) restore() *Result {
	return &Result{
		Scenario: Scenario{Seed: c.ScenarioSeed, NumDevices: c.NumDevices, NumBS: c.NumBS, Window: c.Window}.withDefaults(),
		Context:  c.Context,
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
// the context file. A frame holds one worker's events, as a per-worker
// writer would cut them. The frames are cut through one reused runChunk
// buffer, so saving holds no second copy of the events.
func SaveResult(dir string, r *Result) error {
	if err := CheckRunDir(dir); err != nil {
		return err
	}
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, nil)
	if err != nil {
		return err
	}
	chunk := make([]failure.Event, 0, runChunk)
	flush := func() {
		if len(chunk) > 0 && err == nil {
			err = st.Append(&trace.Batch{Events: chunk})
		}
		chunk = chunk[:0]
	}
	workers, w := r.Scenario.workers(), 0
	r.Dataset.Each(func(e *failure.Event) {
		// Device index DeviceID-1 is past worker w's range.
		for ; w < workers-1 && e.DeviceID > uint64(r.Scenario.NumDevices*(w+1)/workers); w++ {
			flush()
		}
		if chunk = append(chunk, *e); len(chunk) == runChunk {
			flush()
		}
	})
	flush()
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
// Result SaveResult was given, without its events (Dataset is nil). No
// event frame is decoded. A directory without a context file — a
// collector's store, or one not made yet — has the zero context.
func LoadContext(dir string) (*Result, error) {
	raw, err := os.ReadFile(filepath.Join(dir, contextName))
	if errors.Is(err, os.ErrNotExist) {
		res := new(runContext).restore()
		res.Provenance = "no run context (a collector's store)"
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	var c runContext
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
		return nil, fmt.Errorf("fleet: decode run context: %w", err)
	}
	return c.restore(), nil
}

// ReadRun reads run directory dir, which must exist — one SaveResult
// wrote, or any segment store — read-only, so a running collector may own
// it. It hands visit the events a frame at a time in file order, keeping
// none, and returns LoadContext's Result, its provenance counting them.
func ReadRun(dir string, visit func(events []failure.Event)) (*Result, error) {
	res, err := LoadContext(dir)
	if err != nil {
		return nil, err
	}
	n := 0
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, func(b *trace.Batch) {
		n += len(b.Events)
		visit(b.Events)
	})
	if err != nil {
		return nil, err
	}
	res.Provenance += fmt.Sprintf(", %d events in %d segments", n, len(st.Segments()))
	return res, st.Close()
}
