package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer receives execution spans: one per pipeline phase (category
// "phase": parse, normalize, compile, optimize, execute) and one per
// operator kernel evaluation (category "op"). StartSpan opens a span and
// returns the closure that closes it; implementations must tolerate
// concurrent calls — morsel workers trace from their own goroutines.
//
// tid groups spans into horizontal tracks for timeline viewers: the
// executor loop uses track 0, morsel workers pass their worker index + 1,
// so a staircase region's per-worker split is visible as parallel
// slices.
type Tracer interface {
	StartSpan(tid int, cat, name string) func()
}

// JSONTrace is a Tracer sink writing the Trace Event Format consumed by
// chrome://tracing and https://ui.perfetto.dev: a JSON array of complete
// ("ph":"X") duration events. Events are written as spans close, under a
// mutex; buffer the writer if the sink is a file. Close terminates the
// JSON array — a trace without Close is not valid JSON.
type JSONTrace struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	n     int
	err   error
}

// NewJSONTrace starts a trace writing to w.
func NewJSONTrace(w io.Writer) *JSONTrace {
	t := &JSONTrace{w: w, start: time.Now()}
	_, t.err = io.WriteString(w, "[")
	return t
}

// StartSpan implements Tracer.
func (t *JSONTrace) StartSpan(tid int, cat, name string) func() {
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.err != nil {
			return
		}
		sep := ","
		if t.n == 0 {
			sep = ""
		}
		t.n++
		// Names come from operator labels and may contain quotes
		// (doc "auction.xml"); marshal them instead of splicing.
		nameJSON, err := json.Marshal(name)
		if err != nil {
			t.err = err
			return
		}
		_, t.err = fmt.Fprintf(t.w, "%s\n{\"name\":%s,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
			sep, nameJSON, cat,
			float64(t0.Sub(t.start).Nanoseconds())/1e3,
			float64(d.Nanoseconds())/1e3, tid)
	}
}

// Close terminates the JSON array and reports any deferred write error.
func (t *JSONTrace) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	_, t.err = io.WriteString(t.w, "\n]\n")
	return t.err
}
