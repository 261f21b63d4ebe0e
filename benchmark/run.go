package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's input.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured section
	trace    bool
	exrquyd  string // path of the daemon binary (serve)
}

// setupReps is how many times a run sets its workload up from nothing;
// setup_s is the median and the last set-up is the one measured.
const setupReps = 5

// load_ms is the median of the set-ups' loads plus, for documents that
// load quickly, more loads until there are maxLoadSamples or loadBudget
// has been spent loading.
const (
	maxLoadSamples = 25
	loadBudget     = time.Second
)

// measured is one end-to-end metric of one run.
type measured struct {
	Value float64
	// Samples summarizes the within-run samples the value is the median
	// of; zero for metrics that are one figure per run.
	Samples summary
}

// report is what one run of one workload found.
type report struct {
	workload  string
	attempted int // timed operations
	failed    int // operations that erred, were refused, or returned wrong bytes; oracle mismatches
	endToEnd  map[string]measured
	perLayer  map[string]float64
	notes     []string
}

func newReport(workload string) *report {
	r := &report{workload: workload, endToEnd: map[string]measured{}, perLayer: map[string]float64{}}
	for _, d := range perLayerDefs {
		r.perLayer[d.Name] = 0
	}
	return r
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timed is the raw material of the end-to-end metrics.
type timed struct {
	pass      [modes][]float64 // ms per pass
	ops       []float64        // ms per operation
	attempted int
	failed    int
	wall      time.Duration
	peakRSS   float64 // MB
	outBytes  int     // result bytes of the first ordered+unordered pair
}

// passes returns all pass times, both modes.
func (t *timed) passes() []float64 {
	return append(append([]float64(nil), t.pass[ordered]...), t.pass[unordered]...)
}

// endToEnd fills the report's end-to-end metrics from a timed section
// and the set-up samples (seconds) and load samples (ms) behind it.
func (r *report) setEndToEnd(t *timed, setups, loads []float64) {
	r.attempted += t.attempted
	r.failed += t.failed
	put := func(name string, xs []float64) {
		s := summarize(xs)
		r.endToEnd[name] = measured{Value: s.Median, Samples: s}
	}
	put("setup_s", setups)
	put("load_ms", loads)
	put("ordered_pass_ms", t.pass[ordered])
	put("unordered_pass_ms", t.pass[unordered])
	r.endToEnd["op_p99_ms"] = measured{Value: percentile(t.ops, 0.99), Samples: summary{N: len(t.ops)}}
	r.endToEnd["ops_per_s"] = measured{Value: float64(t.attempted) / t.wall.Seconds(), Samples: summary{N: t.attempted}}
	r.endToEnd["peak_rss_mb"] = measured{Value: t.peakRSS}
}

// pairLoop times alternating ordered and unordered passes: one pair after
// another until the budget is used, so both modes see the same drift.
type pairLoop struct {
	reqs [modes][]request
	refs references
	// op evaluates request i of a mode's pass and returns the result bytes.
	op func(mode, i int) (string, error)
	// before and after bracket each pair (stored: attach and detach);
	// afterPass runs between passes, outside their timing. All optional.
	before, after func() error
	afterPass     func()
}

func (l *pairLoop) run(budget time.Duration) (*timed, error) {
	t := &timed{}
	settle()
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		if l.before != nil {
			if err := l.before(); err != nil {
				return nil, err
			}
		}
		for mode := range l.reqs {
			var pass time.Duration
			for i, rq := range l.reqs[mode] {
				t0 := time.Now()
				out, err := l.op(mode, i)
				d := time.Since(t0)
				pass += d
				t.ops = append(t.ops, ms(d))
				t.attempted++
				if err != nil || !l.refs.ok(rq.Text, []byte(out)) {
					t.failed++
				}
				if pair == 0 {
					t.outBytes += len(out)
				}
			}
			t.pass[mode] = append(t.pass[mode], ms(pass))
			t.peakRSS = max(t.peakRSS, rssMB(os.Getpid(), "VmRSS"))
			if l.afterPass != nil {
				l.afterPass()
			}
		}
		if l.after != nil {
			if err := l.after(); err != nil {
				return nil, err
			}
		}
	}
	t.wall = time.Since(start)
	return t, nil
}

// settle collects the garbage set-up and verification left behind and
// returns it to the operating system, so that resident memory sampled
// during the timed section is the timed section's own.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssMB reads a memory figure (VmRSS, VmHWM) of a process from
// /proc/<pid>/status, in MB; 0 if it cannot be read.
func rssMB(pid int, key string) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == key+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// share is a fraction of the run's measuring budget.
func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}
