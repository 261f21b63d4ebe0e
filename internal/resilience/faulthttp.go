package resilience

import (
	"net/http"
	"time"

	"repro/internal/fault"
)

// injectedBody is the response text of forced 500/503 faults, so chaos
// logs can tell an injected error from a real one.
const injectedBody = "injected fault (fault.Plan)"

// InjectFaults wraps next with the armed fault plan's HTTP classes. Each
// request is one event of the fault.Requests site; when residues collide
// on one request the most destructive class wins:
//
//	reset     the connection is aborted before the handler runs — the
//	          client sees a transport error, never a status.
//	truncate  the handler runs, but the body is cut off after the class
//	          argument's bytes and the connection aborted, so the client
//	          reads a partial body that fails mid-read (an unterminated
//	          chunked response, not a short 200).
//	err500 /  the handler is bypassed with a forced 500 / 503
//	err503    (retryable from the client's point of view).
//	latency   the class argument's delay is added before the handler
//	          (the only non-destructive class).
//
// With no plan armed a request costs one pointer load. The server wraps
// only its /query routes, so health and metrics endpoints stay truthful.
func InjectFaults(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := fault.Armed()
		if p == nil {
			next.ServeHTTP(w, r)
			return
		}
		i := p.Next(fault.Requests)
		switch {
		case p.Fire(fault.Reset, i):
			// net/http treats ErrAbortHandler panics as a deliberate
			// mid-response abort: the connection closes without a
			// status line and the client sees a transport error.
			panic(http.ErrAbortHandler)
		case p.Fire(fault.Truncate, i):
			next.ServeHTTP(&truncatingWriter{ResponseWriter: w, remaining: int(p.Arg(fault.Truncate))}, r)
		case p.Fire(fault.Err500, i):
			http.Error(w, injectedBody, http.StatusInternalServerError)
		case p.Fire(fault.Err503, i):
			// Deliberately no Retry-After: injected 503s exercise the
			// client's own backoff, not a server hint.
			http.Error(w, injectedBody, http.StatusServiceUnavailable)
		case p.Fire(fault.Latency, i):
			time.Sleep(time.Duration(p.Arg(fault.Latency)))
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// truncatingWriter cuts the response body after remaining bytes: the
// partial prefix is written and flushed (so the client really receives
// it), then the handler is aborted so the chunked body is never
// terminated. The client's io.ReadAll fails with an unexpected-EOF-class
// error instead of quietly returning a short 200 — a truncated response
// can never be mistaken for a complete one.
type truncatingWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	if len(p) <= t.remaining {
		t.remaining -= len(p)
		return t.ResponseWriter.Write(p)
	}
	t.ResponseWriter.Write(p[:t.remaining]) //nolint:errcheck — aborting anyway
	t.remaining = 0
	if fl, ok := t.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
	panic(http.ErrAbortHandler)
}
