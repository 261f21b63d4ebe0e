package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one crossing of a layer boundary, recorded by the harness
// around its call into the layer. Spans of one operation share Req;
// Parent is the span that caused this one (-1 for a root).
type span struct {
	Name       string
	ID, Parent int
	Req        int
	Track      int           // client goroutine; 0 for single-threaded workloads
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code paths at the cost of
// one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, req, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Track: track, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the harness did not observe itself but
// was told (the engine time a daemon reports in a response header).
func (t *tracer) add(name string, parent, req, track int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Req: req, Track: track,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once). Unfinished spans are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, at := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, at), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// totalTime sums the durations of the spans called name.
func totalTime(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			d += s.End - s.Start
		}
	}
	return d
}

// writeChromeTrace renders spans as complete ("X") events in the JSON
// array format chrome://tracing and Perfetto load.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		ev, err := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Track,
			"ts":   float64(s.Start) / float64(time.Microsecond),
			"dur":  float64(s.End-s.Start) / float64(time.Microsecond),
			"args": map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		if _, err := fmt.Fprintf(bw, "%s%s", sep, ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
