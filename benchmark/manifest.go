package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// manifest mirrors BENCHMARK.json. Unknown or missing keys fail to load.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const manifestFile = "BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, over the 64 KiB limit", path, len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// validate checks the manifest against the builder's contract and against
// what this program emits; it returns every problem found.
func (m *manifest) validate() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if n := len(m.Command); n < 1 || n > 32 {
		fail("command: %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			fail("command: %q is too long, absolute, or leaves the repo", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		fail("paths: %d directories, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			fail("paths: %q is not a plain relative path", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		fail("run_seconds: %d, want 1..60", m.RunSeconds)
	}
	// 4 + 22 runs per workload must end inside the driver's cap even if
	// set-up and checks take as long again as the measurement.
	if runs := 4 + 22*len(m.Workloads); runs*2*m.RunSeconds > 3420 {
		fail("run_seconds: %d runs of ~%d s do not fit 3420 s", runs, 2*m.RunSeconds)
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s: name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("%s: name %q is used twice", kind, n)
		}
		seen[n] = true
	}

	if n := len(m.Workloads); n != len(workloadDefs) {
		fail("workloads: %d declared, the harness runs %d", n, len(workloadDefs))
	}
	for i, w := range m.Workloads {
		name("workloads", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			fail("workloads: %q needs a one-line why of at most 200 characters", w.Name)
		}
		if i < len(workloadDefs) && (w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why) {
			fail("workloads: entry %d is %q, the harness has %q with another why", i, w.Name, workloadDefs[i].Name)
		}
	}

	metrics := func(kind string, got []manifestMetric, want []metricDef, bounded bool, lo, hi int) {
		if n := len(got); n < lo || n > hi {
			fail("%s: %d metrics, want %d..%d", kind, n, lo, hi)
		}
		byName := make(map[string]metricDef, len(want))
		for _, d := range want {
			byName[d.Name] = d
		}
		for _, g := range got {
			name(kind, g.Name)
			if !unitRE.MatchString(g.Unit) {
				fail("%s: %s has unit %q", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				fail("%s: %s has better %q", kind, g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				fail("%s: %s needs a bound in (0, 0.25]", kind, g.Name)
			case !bounded && g.Bound != nil:
				fail("%s: %s must not have a bound", kind, g.Name)
			}
			d, ok := byName[g.Name]
			if !ok {
				fail("%s: %s is declared but the harness does not emit it", kind, g.Name)
				continue
			}
			delete(byName, g.Name)
			if d.Unit != g.Unit || d.Better != g.Better || (bounded && g.Bound != nil && d.Bound != *g.Bound) {
				fail("%s: %s differs from the harness (%s, %s, bound %g)", kind, g.Name, d.Unit, d.Better, d.Bound)
			}
		}
		for n := range byName {
			fail("%s: the harness emits %s but the manifest does not declare it", kind, n)
		}
	}
	metrics("end_to_end", m.EndToEnd, endToEndDefs, true, 1, 16)
	metrics("per_layer", m.PerLayer, perLayerDefs, false, 1, 128)

	setup := false
	for _, g := range m.EndToEnd {
		if g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		fail("end_to_end: no setup_s metric in s, lower is better")
	}
	return bad
}

// checkManifest loads and validates BENCHMARK.json from the checkout root.
func checkManifest() (*manifest, error) {
	m, err := loadManifest(manifestFile)
	if err != nil {
		return nil, err
	}
	if bad := m.validate(); len(bad) > 0 {
		return nil, fmt.Errorf("%s is invalid:\n  %s", manifestFile, strings.Join(bad, "\n  "))
	}
	return m, nil
}
