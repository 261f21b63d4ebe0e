package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmarkq"
	"repro/internal/xquery"
)

// Golden-plan snapshots: the optimized Explain rendering of every XMark
// query, in the baseline (ordered) and the order-indifferent (unordered)
// configuration. The plans carry the paper's claims — which ρ sorts
// survive, which collapse to # — so an optimizer change that moves any of them must show up as a
// reviewed diff here, not as a silent plan drift. Node ids count how many
// intermediate nodes the builder happened to intern, which is optimizer
// traffic, not plan shape: the snapshots hold normalizeIDs' rendering.
//
// Regenerate after an intentional plan change with
//
//	go test ./internal/core -run TestGoldenPlans -update

var updateGolden = flag.Bool("update", false, "rewrite the golden plan files under testdata/plans")

// goldenConfigs are the two plan-shaping configurations worth pinning:
// the order-ignorant baseline and the full order-indifference pipeline
// under unordered mode.
func goldenConfigs() map[string]Config {
	un := xquery.Unordered
	unordered := DefaultConfig()
	unordered.ForceOrdering = &un
	return map[string]Config{
		"ordered":   BaselineConfig(),
		"unordered": unordered,
	}
}

func TestGoldenPlans(t *testing.T) {
	for _, q := range xmarkq.All() {
		for name, cfg := range goldenConfigs() {
			t.Run(fmt.Sprintf("%s/%s", q.Name, name), func(t *testing.T) {
				p, err := Prepare(q.Text, cfg)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				got := normalizeIDs(p.Explain())
				path := filepath.Join("testdata", "plans", fmt.Sprintf("%s.%s.plan", q.Name, name))
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("plan drifted from %s\n-- got --\n%s-- want --\n%s", path, got, want)
				}
			})
		}
	}
}

// normalizeIDs renumbers the node ids of an Explain rendering in
// first-print order ("#id" at a node's only full occurrence, "^id" at
// later references to it), so two plans of the same shape render the
// same whatever ids their builders handed out.
func normalizeIDs(plan string) string {
	renum := make(map[string]string)
	lines := strings.SplitAfter(plan, "\n")
	for i, line := range lines {
		body := strings.TrimLeft(line, " ")
		if body == "" || (body[0] != '#' && body[0] != '^') {
			continue
		}
		end := 1
		for end < len(body) && body[end] >= '0' && body[end] <= '9' {
			end++
		}
		id := body[1:end]
		if body[0] == '#' {
			renum[id] = strconv.Itoa(len(renum))
		}
		lines[i] = line[:len(line)-len(body)] + body[:1] + renum[id] + body[end:]
	}
	return strings.Join(lines, "")
}
