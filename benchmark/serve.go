package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	exrquy "repro"
	"repro/internal/client"
	"repro/internal/governor"
	"repro/internal/server"
)

// The serve workload drives a real exrquyd subprocess over loopback
// HTTP: default flags, ephemeral port, the document uploaded with PUT,
// plan cache warm. Callers of a query service wait for their reply, so
// the loop is closed: serveClients clients, each sending its next
// request when the previous one has answered.

const serveClients = 2

// daemon is a running exrquyd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	stop func() // SIGTERM, wait for the drain, remove the temp dir
}

// startDaemon boots bin on an ephemeral port and waits for /healthz.
func startDaemon(bin string) (*daemon, error) {
	dir, err := os.MkdirTemp("", "exrquy-bench-daemon-")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon carries nothing
		close(exited)
	}()
	d := &daemon{cmd: cmd}
	d.stop = cleanup.add(func() {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		select {
		case <-exited:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			<-exited
		}
		os.RemoveAll(dir)
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			d.stop()
			return nil, fmt.Errorf("%s exited during start-up: %s", bin, strings.TrimSpace(stderr.String()))
		default:
		}
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + strings.TrimSpace(string(addr))
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("%s did not become healthy in 15 s", bin)
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}

// do sends one request and returns the status, the whole body and the
// response headers.
func do(hc *http.Client, method, url string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// putDoc uploads the document and returns how long the daemon took.
func putDoc(hc *http.Client, base string, xml []byte) (time.Duration, error) {
	t0 := time.Now()
	status, body, _, err := do(hc, http.MethodPut, base+"/documents/"+docName, xml)
	d := time.Since(t0)
	if err == nil && status != http.StatusOK && status != http.StatusCreated {
		err = fmt.Errorf("PUT %s: status %d: %s", docName, status, body)
	}
	return d, err
}

// post is the operation: one POST /query, answered and read to the end.
func post(hc *http.Client, base, text string) ([]byte, http.Header, error) {
	status, body, hdr, err := do(hc, http.MethodPost, base+"/query", []byte(text))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /query: status %d: %s", status, body)
	}
	return body, hdr, err
}

// warmDaemon sends every request once, which fills the plan cache.
func warmDaemon(hc *http.Client, base string, reqs []request) error {
	for _, rq := range reqs {
		if _, _, err := post(hc, base, rq.Text); err != nil {
			return fmt.Errorf("warm-up Q%d: %w", rq.Query, err)
		}
	}
	return nil
}

// serveSetup is the samples and the final state of the set-ups.
type serveSetup struct {
	libSetup
	d    *daemon
	reqs [modes][]request
}

func setUpServe(c runConfig) (*serveSetup, error) {
	su := &serveSetup{reqs: requestsFor(pathQueries)}
	all := flatten(su.reqs)
	hc := newHTTPClient(1)
	for rep := 0; rep < setupReps; rep++ {
		if su.d != nil {
			su.d.stop()
		}
		t0 := time.Now()
		su.xml = genXML(serveFactor, c.seed)
		su.gens = append(su.gens, ms(time.Since(t0)))
		d, err := startDaemon(c.exrquyd)
		if err != nil {
			return nil, err
		}
		su.d = d
		load, err := putDoc(hc, d.base, su.xml)
		if err != nil {
			return nil, err
		}
		su.loads = append(su.loads, ms(load))
		if err := warmDaemon(hc, d.base, all); err != nil {
			return nil, err
		}
		su.setups = append(su.setups, time.Since(t0).Seconds())
	}
	// More uploads for load_ms; each reload drops the document's cached
	// plans, so warm up again afterwards.
	for su.wantsLoad() {
		load, err := putDoc(hc, su.d.base, su.xml)
		if err != nil {
			return nil, err
		}
		su.loads = append(su.loads, ms(load))
	}
	if err := warmDaemon(hc, su.d.base, all); err != nil {
		return nil, err
	}
	// References: the daemon must return what an in-process default
	// engine returns, which in turn is checked against the baseline.
	inproc := exrquy.New()
	if _, err := loadXML(inproc, su.xml); err != nil {
		return nil, err
	}
	if err := su.check(c, su.reqs, inproc.Query); err != nil {
		return nil, err
	}
	return su, nil
}

// closedLoop runs serveClients clients against base until the budget is
// used. Each client walks a seeded shuffle of all requests, reshuffled
// per walk; one walk yields one ordered and one unordered pass time (the
// sum of that mode's request latencies).
func closedLoop(base string, c runConfig, reqs [modes][]request, refs references, budget time.Duration, tr *tracer) *timed {
	all := flatten(reqs)
	results := make([]*timed, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			t := &timed{}
			hc := newHTTPClient(1)
			for walk := 0; walk == 0 || time.Since(start) < budget; walk++ {
				var pass [modes]time.Duration
				for _, i := range shuffle(c.seed, cl*1_000_000+walk, len(all)) {
					rq := all[i]
					req := cl*1_000_000 + t.attempted
					id := tr.begin("client.post", -1, req, cl)
					t0 := time.Now()
					out, hdr, err := post(hc, base, rq.Text)
					t1 := time.Now()
					tr.end(id)
					if el, perr := time.ParseDuration(hdr.Get("X-Query-Elapsed")); err == nil && perr == nil {
						// The daemon reports engine time, not when it started;
						// place the span so that it ends with the response.
						tr.add("engine.execute", id, req, cl, t1.Add(-el), t1)
					}
					d := t1.Sub(t0)
					pass[rq.Mode] += d
					t.ops = append(t.ops, ms(d))
					t.attempted++
					if err != nil || !refs.ok(rq.Text, out) {
						t.failed++
					}
					if walk == 0 {
						t.outBytes += len(out)
					}
				}
				for mode := range pass {
					t.pass[mode] = append(t.pass[mode], ms(pass[mode]))
				}
			}
			results[cl] = t
		}(cl)
	}
	wg.Wait()
	total := &timed{wall: time.Since(start), outBytes: results[0].outBytes}
	for _, t := range results {
		for mode := range t.pass {
			total.pass[mode] = append(total.pass[mode], t.pass[mode]...)
		}
		total.ops = append(total.ops, t.ops...)
		total.attempted += t.attempted
		total.failed += t.failed
	}
	return total
}

func runServe(c runConfig) (*report, error) {
	su, err := setUpServe(c)
	if err != nil {
		return nil, err
	}
	defer su.d.stop()
	rep := newReport("serve")
	rep.failed += su.oracleBad + su.refsWrong
	if c.trace {
		return rep, traceServe(c, su, rep)
	}
	settle()
	t := closedLoop(su.d.base, c, su.reqs, su.refs, c.share(1), nil)
	t.peakRSS = rssMB(su.d.cmd.Process.Pid, "VmHWM")
	rep.setEndToEnd(t, su.setups, su.loads)
	return rep, nil
}

// daemonStats is the part of GET /debug/stats the harness reads.
type daemonStats struct {
	Governor struct{ Shed int64 }
	Cache    struct{ Hits, Misses int64 }
}

func readDaemonStats(hc *http.Client, base string) (daemonStats, error) {
	var st daemonStats
	status, body, _, err := do(hc, http.MethodGet, base+"/debug/stats", nil)
	if err != nil || status != http.StatusOK {
		return st, fmt.Errorf("GET /debug/stats: status %d: %v", status, err)
	}
	return st, json.Unmarshal(body, &st)
}

// queueWait reads the governor's queue-wait histogram from GET /metrics:
// how many admissions waited and for how long in total.
func queueWait(hc *http.Client, base string) (count, sumNS float64) {
	_, body, _, err := do(hc, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == "governor_queue_wait_ns" {
			fmt.Sscanf(f[1], "count=%g", &count) //nolint:errcheck // zero on a malformed line
			fmt.Sscanf(f[2], "sum=%g", &sumNS)   //nolint:errcheck
		}
	}
	return count, sumNS
}

// requestOp evaluates one request some way and returns the result bytes.
type requestOp func(rq request) ([]byte, error)

// p50Each calls every op on each request in turn, walking the requests in
// a seeded order until the budget is used, and returns each op's median
// latency in microseconds. Alternating the ops request by request, in an
// order reshuffled each time, exposes them to the same drift and the
// same neighbours (an op that follows a network round trip starts on
// cold caches), so their differences mean something.
// Results are checked on the first walk (nil refs: the ops check their
// own).
func p50Each(c runConfig, reqs []request, refs references, budget time.Duration, rep *report, ops ...requestOp) []float64 {
	us := make([][]float64, len(ops))
	start := time.Now()
	for walk, n := 0, 0; walk == 0 || time.Since(start) < budget; walk++ {
		for _, i := range shuffle(c.seed, 7_000_000+walk, len(reqs)) {
			n++
			for _, k := range shuffle(c.seed, 8_000_000+n, len(ops)) {
				t0 := time.Now()
				out, err := ops[k](reqs[i])
				us[k] = append(us[k], float64(time.Since(t0))/float64(time.Microsecond))
				if walk == 0 && (err != nil || (refs != nil && !refs.ok(reqs[i].Text, out))) {
					rep.failed++
				}
			}
		}
	}
	p50 := make([]float64, len(ops))
	for k := range ops {
		p50[k] = median(us[k])
	}
	return p50
}

// handlerOp serves one POST /query inside this process, with no socket.
func handlerOp(h http.Handler) requestOp {
	return func(rq request) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(rq.Text)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
}

// inprocServer builds a server.Server in this process over the document.
func inprocServer(cfg server.Config, xml []byte) (*server.Server, error) {
	s := server.New(cfg)
	_, err := loadXML(s.Engine(), xml)
	return s, err
}

// traceServe is the traced run of the serve workload.
func traceServe(c runConfig, su *serveSetup, rep *report) error {
	base, hc := su.d.base, newHTTPClient(1)
	all := flatten(su.reqs)
	rep.perLayer["server.put_mb_s"] = float64(len(su.xml)) / (1 << 20) / (median(su.loads) / 1000)
	if _, err := su.traceDocument(su.reqs, rep); err != nil {
		return err
	}

	// Closed loop, untraced then traced, with the daemon's own counters
	// read on either side.
	stats0, err := readDaemonStats(hc, base)
	if err != nil {
		return err
	}
	waits0, waitNS0 := queueWait(hc, base)
	plain := closedLoop(base, c, su.reqs, su.refs, c.share(0.15), nil)
	tr := newTracer()
	traced := closedLoop(base, c, su.reqs, su.refs, c.share(0.25), tr)
	stats1, err := readDaemonStats(hc, base)
	if err != nil {
		return err
	}
	waits1, waitNS1 := queueWait(hc, base)
	rep.attempted += plain.attempted + traced.attempted
	rep.failed += plain.failed + traced.failed
	spans := tr.snapshot()
	hits, misses := float64(stats1.Cache.Hits-stats0.Cache.Hits), float64(stats1.Cache.Misses-stats0.Cache.Misses)
	rep.perLayer["server.rps"] = float64(traced.attempted) / traced.wall.Seconds()
	rep.perLayer["server.engine_share"] = ratio(float64(totalTime(spans, "engine.execute")), float64(totalTime(spans, "client.post")))
	rep.perLayer["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	rep.perLayer["governor.shed"] = float64(stats1.Governor.Shed - stats0.Governor.Shed)
	rep.perLayer["governor.queue_wait_ms"] = ratio((waitNS1-waitNS0)/1e6, waits1-waits0)
	rep.perLayer["obs.trace_overhead_ratio"] = ratio(median(traced.passes()), median(plain.passes()))
	rep.perLayer["xmltree.result_bytes_per_pass"] = float64(plain.outBytes)
	rep.note("%d requests traced, %d spans", traced.attempted, len(spans))

	// One client at a time: the same request over loopback, through the
	// handler without a socket (gates off, then armed but never
	// tripping), and straight into the engine.
	plainSrv, err := inprocServer(server.Config{}, su.xml)
	if err != nil {
		return err
	}
	gatedSrv, err := inprocServer(server.Config{RateQPS: 1e9, RateBurst: 1 << 30, BreakerFailures: 5, WatchdogTimeout: 30 * time.Second}, su.xml)
	if err != nil {
		return err
	}
	direct := exrquy.New()
	if _, err := loadXML(direct, su.xml); err != nil {
		return err
	}
	plans := map[string]*exrquy.Query{}
	for _, rq := range all {
		if plans[rq.Text], err = direct.Compile(rq.Text); err != nil {
			return fmt.Errorf("compile Q%d: %w", rq.Query, err)
		}
	}
	loopbackOp := func(rq request) ([]byte, error) {
		out, _, err := post(hc, base, rq.Text)
		return out, err
	}
	directOp := func(rq request) ([]byte, error) {
		res, err := plans[rq.Text].Execute()
		if err != nil {
			return nil, err
		}
		out, err := res.XML()
		return []byte(out), err
	}
	p50 := p50Each(c, all, su.refs, c.share(0.08), rep, loopbackOp, handlerOp(plainSrv.Handler()))
	rep.perLayer["server.http_us"] = p50[0] - p50[1]
	p50 = p50Each(c, all, su.refs, c.share(0.12), rep, handlerOp(plainSrv.Handler()), handlerOp(gatedSrv.Handler()), directOp)
	rep.perLayer["server.handler_us"] = p50[0] - p50[2]
	rep.perLayer["resilience.gates_tax_us"] = p50[1] - p50[0]

	// Plan cache defeated: a distinct literal in front of every query
	// (Q18 opens with a function declaration, which nothing may precede).
	var missable []request
	for _, rq := range su.reqs[ordered] {
		if strings.HasPrefix(rq.Text, "let ") {
			missable = append(missable, rq)
		}
	}
	nonce := 0
	rep.perLayer["server.miss_ms"] = p50Each(c, missable, nil, c.share(0.07), rep, func(rq request) ([]byte, error) {
		nonce++
		out, _, err := post(hc, base, fmt.Sprintf("let $nonce := %d return %s", nonce, rq.Text))
		rep.attempted++
		if err != nil || !su.refs.ok(rq.Text, out) {
			rep.failed++
		}
		return out, nil
	})[0] / 1000

	// Uncontended admission.
	gov := governor.New(governor.Config{})
	const admits = 1 << 16
	t0 := time.Now()
	for i := 0; i < admits; i++ {
		lease, err := gov.Admit(context.Background())
		if err != nil {
			return fmt.Errorf("governor.Admit: %w", err)
		}
		lease.Release()
	}
	rep.perLayer["governor.admit_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / admits

	// The resilient client against a bare http.Client, same GET.
	rc := client.New(client.Config{BaseURL: base, HTTPClient: hc})
	p50 = p50Each(c, all, su.refs, c.share(0.08), rep,
		func(rq request) ([]byte, error) {
			resp, err := rc.Query(context.Background(), rq.Text)
			if err != nil {
				return nil, err
			}
			return resp.Body, nil
		},
		func(rq request) ([]byte, error) {
			_, out, _, err := do(hc, http.MethodGet, base+"/query?q="+url.QueryEscape(rq.Text), nil)
			return out, err
		})
	rep.perLayer["client.overhead_us"] = p50[0] - p50[1]

	openLoop(c, base, all, su.refs, rep.perLayer["server.rps"]/2, c.share(0.15), rep)
	return writeTrace(c, spans)
}

// openLoop sends requests on a fixed schedule whether or not earlier ones
// have answered — independent users — and times each from when it was
// due, so a stall counts against the requests queued behind it.
func openLoop(c runConfig, base string, reqs []request, refs references, rate float64, budget time.Duration, rep *report) {
	if rate <= 0 {
		return
	}
	const maxInflight = 64
	hc := newHTTPClient(maxInflight)
	interval := time.Duration(float64(time.Second) / rate)
	n := int(budget / interval)
	order := shuffle(c.seed, 9_000_000, len(reqs))
	latency, lag := make([]float64, n), make([]float64, n)
	failed := make([]bool, n)
	inflight := make(chan struct{}, maxInflight) // semaphore bounding open connections
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		inflight <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-inflight }()
			rq := reqs[order[i%len(order)]]
			sent := time.Now()
			out, _, err := post(hc, base, rq.Text)
			latency[i] = ms(time.Since(due))
			lag[i] = ms(sent.Sub(due))
			failed[i] = err != nil || !refs.ok(rq.Text, out)
		}(i)
	}
	wg.Wait()
	for _, f := range failed {
		rep.attempted++
		if f {
			rep.failed++
		}
	}
	rep.perLayer["server.open_p99_ms"] = percentile(latency, 0.99)
	rep.perLayer["server.gen_lag_p99_ms"] = percentile(lag, 0.99)
}
