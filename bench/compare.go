package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict judges one workload × end-to-end metric pair. change is the
// relative worsening of the new median (positive: worse). Within the bound
// is "ok" and beyond it "worse" — unless either side's run-to-run spread is
// wider than the bound, in which case the pair is "unresolved": the
// benchmark cannot tell at this sample.
func verdict(d metricDef, old, new *metricStat) (change float64, v string) {
	change = (new.Median - old.Median) / old.Median
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case old.Spread > d.Bound || new.Spread > d.Bound:
		v = "unresolved"
	case change > d.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return change, v
}

// compareFiles prints one row per workload × end-to-end metric and
// returns the exit code: non-zero on any "worse" row, on a higher failed
// share, or on a side that failed its output checks.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readResult(oldPath)
	if err == nil && old.Traced {
		err = fmt.Errorf("%s is a traced run; compare end-to-end result files", oldPath)
	}
	var cur *resultFile
	if err == nil {
		cur, err = readResult(newPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, m := range mixes {
		ow, nw := old.Workloads[m.name], cur.Workloads[m.name]
		if ow == nil || nw == nil {
			fmt.Fprintf(w, "%-20s missing from one side\n", m.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.Metrics[d.Name], nw.Metrics[d.Name]
			if o == nil || n == nil {
				fmt.Fprintf(w, "%-20s %-26s missing from one side\n", m.name, d.Name)
				code = 1
				continue
			}
			change, v := verdict(d, o, n)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-26s %14.4f %14.4f %+7.1f%% %6.1f%%  %s\n", m.name, d.Name, o.Median, n.Median, 100*change, 100*d.Bound, v)
		}
		of, nf := failedShare(ow), failedShare(nw)
		v := "ok"
		if nf > of || !nw.Correct {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-20s %-26s %14.6f %14.6f %8s %7s  %s\n", m.name, "failed_ops_ratio", of, nf, "", "0", v)
	}
	return code
}

func failedShare(ws *workloadStats) float64 {
	if ws.Attempted == 0 {
		return 1
	}
	return float64(ws.Failed) / float64(ws.Attempted)
}
