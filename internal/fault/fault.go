// Package fault is the process's one deterministic fault-injection
// plane. A Plan names, per fault class, a period n and one seed for all
// classes: event i of the class's site fires iff i mod n == seed mod n.
// Each site numbers its own events in the plan, so the same seed and
// spec replay the same faults at the same event indices regardless of
// timing, and a failing chaos or soak run can be replayed exactly.
//
// The sites keep only what is specific to them and consult Armed once
// per event; with no plan armed (production) that is one atomic pointer
// load:
//
//	site        event                          classes, in precedence order
//	Requests    one /query HTTP request        reset truncate err500 err503 latency (internal/resilience)
//	Admissions  one governor admission         shed starve (internal/governor)
//	Kernels     one serial operator evaluation panic (internal/engine)
//	Morsels     one morsel task                morselpanic (internal/parallel)
//	Queries     one store-backed execution     eio badcrc (internal/store)
//	Opens       one store part open            shortread mmap (internal/store)
//	Writes      one WriteDoc                   torn (internal/store)
//
// The cancel class has no site: a soak test asks Hits(Cancel, n) which
// of its queries to storm with cancellation.
//
// This is how the chaos and soak suites check the paper's claim that
// order-indifferent plan regions can be retried, restarted or failed over
// without changing a result byte. Production never arms a plan.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Class is one kind of injected fault.
type Class int

// The fault classes, grouped by the site that injects them.
const (
	Latency     Class = iota // delay the request by Arg (default 2ms), then serve it
	Err500                   // answer 500 without running the handler
	Err503                   // answer 503 without running the handler
	Reset                    // abort the connection before the handler runs
	Truncate                 // cut the response body after Arg bytes (default 16) and abort
	Shed                     // shed the admission with ErrOverload (an injected queue timeout)
	Starve                   // admit with an Arg-byte ledger quota (default 4096)
	Panic                    // panic in the serial kernel
	MorselPanic              // panic in the morsel task
	Cancel                   // the soak test cancels the query mid-flight
	EIO                      // mark one part of a mounted store suspect with an I/O error
	BadCRC                   // as EIO, reading as a checksum mismatch
	ShortRead                // the part open sees a file truncated mid-section
	Mmap                     // the part open fails to map the file
	Torn                     // WriteDoc crashes after the part files, before any manifest
	NumClasses
)

// classes is the spec grammar's key table: a class's name and, for the
// classes that take a :suffix, how it parses and what it defaults to.
var classes = [NumClasses]struct {
	name string
	arg  func(string) (int64, error) // nil: the class takes no :suffix
	def  int64
}{
	Latency:     {"latency", parseDuration, int64(2 * time.Millisecond)},
	Err500:      {name: "err500"},
	Err503:      {name: "err503"},
	Reset:       {name: "reset"},
	Truncate:    {"truncate", parseInt, 16},
	Shed:        {name: "shed"},
	Starve:      {"starve", parseInt, 4096},
	Panic:       {name: "panic"},
	MorselPanic: {name: "morselpanic"},
	Cancel:      {name: "cancel"},
	EIO:         {name: "eio"},
	BadCRC:      {name: "badcrc"},
	ShortRead:   {name: "shortread"},
	Mmap:        {name: "mmap"},
	Torn:        {name: "torn"},
}

// Site is one stream of events a plan numbers (see the package comment).
type Site int

// The injection sites.
const (
	Requests Site = iota
	Admissions
	Kernels
	Morsels
	Queries
	Opens
	Writes
	numSites
)

// PerClass holds one value per fault class.
type PerClass [NumClasses]int64

// Plan is a seeded fault schedule. The zero Plan injects nothing. A plan
// counts events, so arm a fresh one to replay a schedule from the start.
type Plan struct {
	// Seed shifts which events of each class fire, not how many.
	Seed int64
	// Every[c] > 0 fires class c on every Every[c]th event of its site;
	// zero disables the class.
	Every PerClass
	// Args[c] is class c's argument: the injected latency in nanoseconds,
	// the truncation offset in bytes, the starved quota in bytes. <= 0
	// means the class's default.
	Args PerClass

	events   [numSites]atomic.Int64
	injected atomic.Int64
}

// Next numbers the next event at site s: 0, 1, 2, ...
func (p *Plan) Next(s Site) int64 { return p.events[s].Add(1) - 1 }

// Hits reports whether event i of its site fires class c: the one
// residue rule, i mod n == seed mod n with the residue taken
// non-negative, so a negative seed shifts the schedule rather than
// disabling it.
func (p *Plan) Hits(c Class, i int64) bool {
	n := p.Every[c]
	if n <= 0 {
		return false
	}
	r := p.Seed % n
	if r < 0 {
		r += n
	}
	return i%n == r
}

// Fire is Hits for a site about to inject: when c fires at event i it
// counts the injection in the plan and in faults_injected_total.
func (p *Plan) Fire(c Class, i int64) bool {
	if !p.Hits(c, i) {
		return false
	}
	p.injected.Add(1)
	obs.FaultsInjected.Inc()
	return true
}

// Injected returns how many faults the plan has injected.
func (p *Plan) Injected() int64 { return p.injected.Load() }

// Arg returns class c's argument, or its default when unset.
func (p *Plan) Arg(c Class) int64 {
	if a := p.Args[c]; a > 0 {
		return a
	}
	return classes[c].def
}

// InjectedPanic is the value the kernel and morsel sites panic with; the
// recover barriers turn it into qerr.ErrInternal like any other panic.
const InjectedPanic = "fault: injected kernel panic"

var armed atomic.Pointer[Plan]

// Arm makes p the process-wide plan every site consults, replacing any
// plan already armed, and returns the function that disarms it. Disarm
// is idempotent and leaves alone a plan armed after p.
func Arm(p *Plan) (disarm func()) {
	armed.Store(p)
	return func() { armed.CompareAndSwap(p, nil) }
}

// Armed returns the armed plan, or nil.
func Armed() *Plan { return armed.Load() }

// Parse reads a plan from comma-separated key=value pairs:
//
//	seed=N,class=period[:arg],...
//
// where class is one of the class names above. latency takes a duration
// argument, truncate and starve a byte count; no other class takes one.
// Unknown and repeated keys are errors. An empty spec returns a nil plan.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{}
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault spec: %q is not key=value", kv)
		}
		if seen[key] {
			return nil, fmt.Errorf("fault spec: %s given twice", key)
		}
		seen[key] = true
		c := lookup(key) // -1 for seed
		if c < 0 && key != "seed" {
			return nil, fmt.Errorf("fault spec: unknown class %q", key)
		}
		val, suffix, hasSuffix := strings.Cut(val, ":")
		if hasSuffix && (c < 0 || classes[c].arg == nil) {
			return nil, fmt.Errorf("fault spec: %s does not take a :suffix", key)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		switch {
		case err != nil:
			return nil, fmt.Errorf("fault spec: %s: %v", key, err)
		case c < 0:
			p.Seed = n
		case n < 0:
			return nil, fmt.Errorf("fault spec: %s: negative period %d", key, n)
		default:
			p.Every[c] = n
		}
		if hasSuffix {
			if p.Args[c], err = classes[c].arg(suffix); err != nil {
				return nil, fmt.Errorf("fault spec: %s argument: %v", key, err)
			}
		}
	}
	return p, nil
}

// lookup returns the class named key, or -1.
func lookup(key string) Class {
	for c := range classes {
		if classes[c].name == key {
			return Class(c)
		}
	}
	return -1
}

func parseInt(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func parseDuration(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	return int64(d), err
}
