package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestMetricCatalogueMatchesRegistry: the families named in the first
// column of README's "Metric catalogue" table are exactly those registered
// in metrics.Default() (this package's imports register every family), so
// a family added, renamed or retired without its row fails here.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n### Metric catalogue\n")
	section, _, _ = strings.Cut(section, "\n#")
	documented := make(map[string]bool)
	firstCell, family := regexp.MustCompile(`(?m)^\| ([^|]+) \|`), regexp.MustCompile("`([a-z0-9_]+)(?:\\{[a-z_,]+\\})?`")
	for _, cell := range firstCell.FindAllStringSubmatch(section, -1) {
		for _, m := range family.FindAllStringSubmatch(cell[1], -1) {
			documented[m[1]] = true
		}
	}
	var buf bytes.Buffer
	var registered map[string]json.RawMessage
	if err := metrics.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &registered); err != nil || len(registered) == 0 {
		t.Fatalf("registry dump: %d families, %v", len(registered), err)
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("registered family %s has no row in README's metric catalogue", name)
		}
	}
	for name := range documented {
		if registered[name] == nil {
			t.Errorf("README's metric catalogue names %s, which nothing registers", name)
		}
	}
}
