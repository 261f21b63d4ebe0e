// Command xmarkbench reproduces the paper's evaluation (§5):
//
//	xmarkbench -table2              Table 2: Q11 profile breakdown
//	xmarkbench -figure12            Figure 12: speedup sweep over Q1–Q20
//	xmarkbench -plansizes           Figure 6/9, §4.1: plan statistics
//	xmarkbench -ablation            per-rewrite timing ablation
//
// Document sizes are scaled to in-memory Go scale; the paper's 30 s
// cutoff convention is kept (queries that exceed it report "cutoff", as
// the gaps in the paper's Figure 12 do).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "reproduce Table 2 (Q11 profile)")
		figure12  = flag.Bool("figure12", false, "reproduce Figure 12 (speedup sweep)")
		planSizes = flag.Bool("plansizes", false, "reproduce the plan-size claims (Figure 6/9, §4.1)")
		ablation  = flag.Bool("ablation", false, "run the optimizer ablation")
		factor    = flag.Float64("factor", 0.05, "scale factor for -table2/-ablation")
		factorsS  = flag.String("factors", "0.002,0.01,0.05,0.2", "comma-separated factors for -figure12")
		cutoff    = flag.Duration("cutoff", 30*time.Second, "per-run cutoff (paper: 30s)")
		repeats   = flag.Int("repeats", 3, "measurements per point (median)")
	)
	flag.Parse()

	ran := false
	if *table2 {
		ran = true
		if _, err := bench.Table2(*factor, os.Stdout); err != nil {
			fatal("table2: %v", err)
		}
	}
	if *planSizes {
		ran = true
		if _, err := bench.PlanSizes(os.Stdout); err != nil {
			fatal("plansizes: %v", err)
		}
	}
	if *figure12 {
		ran = true
		var factors []float64
		for _, s := range strings.Split(*factorsS, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal("bad factor %q", s)
			}
			factors = append(factors, f)
		}
		bench.Figure12(factors, *cutoff, *repeats, os.Stdout)
	}
	if *ablation {
		ran = true
		if _, err := bench.Ablation(*factor, *repeats, os.Stdout); err != nil {
			fatal("ablation: %v", err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmarkbench: "+format+"\n", args...)
	os.Exit(1)
}
