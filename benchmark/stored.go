package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	exrquy "repro"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// The stored workload serves the paths document from an on-disk store:
// 3 shards, 2 replicas, mounted under a paging budget of a quarter of
// the mapped bytes. One cycle mounts the store in a new engine, runs an
// ordered and an unordered pass of the paths queries, and detaches.

const (
	storeShards   = 3
	storeReplicas = 2
)

// storedState is one completed set-up of the stored workload.
type storedState struct {
	libState
	root   string   // temporary directory holding the shard directories
	dirs   []string // one per shard
	mapped int64    // bytes one mount maps
	remove func()
	loads  []float64 // ms per AttachStore
	// resident collects resident bytes after each pass of the timed section.
	resident []float64
}

// mount starts a cycle: a new engine under the paging budget (a quarter
// of what the mount maps), the store attached, the plans compiled. The
// engine is new each cycle because an engine keeps every fragment it was
// ever handed: cycling one engine grows by the reassembled document
// (~30 MB here) per cycle, and the timed section would measure that
// growth instead of the store.
func (s *storedState) mount() error {
	s.eng = exrquy.New(exrquy.WithStoreBudget(s.mapped / 4))
	t0 := time.Now()
	_, err := s.eng.AttachStore(s.dirs...)
	s.loads = append(s.loads, ms(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	return s.compile()
}

func (s *storedState) unmount() error {
	_, err := s.eng.DetachStore(s.dirs[0])
	return err
}

// sample is what a serving layer does periodically: refresh residency
// accounting, which is also what lets ledger pressure evict pages.
func (s *storedState) sample() {
	_, res := s.eng.SampleStores()
	s.resident = append(s.resident, float64(res)/(1<<20))
}

// storedSetup is the samples and final state of the workload's set-ups.
type storedSetup struct {
	libSetup
	st     *storedState
	writes []float64 // ms per store write
}

// writeStore writes the document held by loader as shards x replicas
// under a fresh temporary directory.
func writeStore(loader *exrquy.Engine, shards, replicas int) (root string, dirs []string, remove func(), err error) {
	root, err = os.MkdirTemp("", "exrquy-bench-store-")
	if err != nil {
		return "", nil, nil, err
	}
	remove = cleanup.add(func() { os.RemoveAll(root) })
	for i := 0; i < shards; i++ {
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("shard%d", i)))
	}
	if err := loader.WriteStoreReplicated(docName, replicas, dirs...); err != nil {
		remove()
		return "", nil, nil, fmt.Errorf("write store: %w", err)
	}
	return root, dirs, remove, nil
}

func setUpStored(c runConfig) (*storedSetup, error) {
	su := &storedSetup{}
	reqs := requestsFor(pathQueries)
	for rep := 0; rep < setupReps; rep++ {
		if su.st != nil {
			su.st.remove()
		}
		t0 := time.Now()
		su.xml = genXML(pathsFactor, c.seed)
		su.gens = append(su.gens, ms(time.Since(t0)))
		loader := exrquy.New()
		if _, err := loadXML(loader, su.xml); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		tw := time.Now()
		root, dirs, remove, err := writeStore(loader, storeShards, storeReplicas)
		if err != nil {
			return nil, err
		}
		su.writes = append(su.writes, ms(time.Since(tw)))

		// The paging budget is a quarter of what a mount maps.
		probe := exrquy.New()
		if _, err := probe.AttachStore(dirs...); err != nil {
			return nil, fmt.Errorf("attach: %w", err)
		}
		mapped, _ := probe.SampleStores()
		if _, err := probe.DetachStore(dirs[0]); err != nil {
			return nil, err
		}

		st := &storedState{root: root, dirs: dirs, mapped: mapped, remove: remove}
		st.reqs = reqs
		if err := st.mount(); err != nil {
			return nil, err
		}
		if err := st.warm(); err != nil {
			return nil, err
		}
		if err := st.unmount(); err != nil {
			return nil, err
		}
		su.setups = append(su.setups, time.Since(t0).Seconds())
		su.st = st
	}
	// References, with the store mounted as the candidate.
	if err := su.st.mount(); err != nil {
		return nil, err
	}
	if err := su.check(c, reqs, su.st.eng.Query); err != nil {
		return nil, err
	}
	if err := su.st.unmount(); err != nil {
		return nil, err
	}
	su.st.loads = su.st.loads[:0] // load_ms comes from the timed cycles
	return su, nil
}

func runStored(c runConfig) (*report, error) {
	su, err := setUpStored(c)
	if err != nil {
		return nil, err
	}
	defer su.st.remove()
	rep := newReport("stored")
	rep.failed += su.oracleBad + su.refsWrong
	st := su.st
	loop := &pairLoop{reqs: st.reqs, refs: su.refs, op: st.op, before: st.mount, after: st.unmount, afterPass: st.sample}
	if !c.trace {
		t, err := loop.run(c.share(1))
		if err != nil {
			return nil, err
		}
		rep.setEndToEnd(t, su.setups, st.loads)
		return rep, nil
	}
	return rep, traceStored(c, su, loop, rep)
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// storeCounter reads one of the store counters the engine exports.
func storeCounter(name string) float64 {
	for _, m := range exrquy.Metrics() {
		if m.Name == name {
			return float64(m.Value)
		}
	}
	return 0
}

// openDoc mounts dirs with the store layer's own API and returns the
// store and its documents ready for direct execution.
func openDoc(dirs []string, ledger *xdm.Ledger) (*store.Store, *memDoc, error) {
	st, err := store.Open(dirs, store.Options{Ledger: ledger})
	if err != nil {
		return nil, nil, err
	}
	return st, storeDoc(st.Docs()), nil
}

func storeDoc(entries []store.DocEntry) *memDoc {
	frags := map[string]*xmltree.Fragment{}
	for _, d := range entries {
		frags[d.URI] = d.Frag
	}
	return newMemDoc(frags)
}

// traceStored is the traced run of the stored workload.
func traceStored(c runConfig, su *storedSetup, loop *pairLoop, rep *report) error {
	st := su.st
	rep.perLayer["store.write_ms"] = median(su.writes)
	heap, err := su.traceDocument(st.reqs, rep)
	if err != nil {
		return err
	}
	onDisk, err := dirBytes(st.root)
	if err != nil {
		return err
	}
	rep.perLayer["store.bytes_per_user_byte"] = float64(onDisk) / float64(len(su.xml))

	// Untraced cycles through the public API — the base of the tracing
	// overhead, and the paging counters of the real mount — each followed
	// by the same passes over the same document on the heap: the store tax.
	mem := &libState{eng: exrquy.New(), reqs: st.reqs}
	if _, err := loadXML(mem.eng, su.xml); err != nil {
		return err
	}
	if err := mem.compile(); err != nil {
		return err
	}
	var heapMS []float64
	loop.after = func() error {
		if err := st.unmount(); err != nil {
			return err
		}
		for mode := range mem.reqs {
			t0 := time.Now()
			for i, rq := range mem.reqs[mode] {
				if _, err := mem.op(mode, i); err != nil {
					return fmt.Errorf("heap Q%d: %w", rq.Query, err)
				}
			}
			heapMS = append(heapMS, ms(time.Since(t0)))
		}
		return nil
	}
	faults0, evict0 := storeCounter("store_page_faults_total"), storeCounter("store_evictions_total")
	before := readMemCounters()
	plain, err := loop.run(c.share(0.35))
	if err != nil {
		return err
	}
	rep.setMemLayers(before, readMemCounters(), len(plain.passes())+len(heapMS))
	cycles := float64(len(plain.pass[ordered]))
	rep.attempted, rep.failed = rep.attempted+plain.attempted, rep.failed+plain.failed
	rep.perLayer["store.page_faults_per_cycle"] = (storeCounter("store_page_faults_total") - faults0) / cycles
	rep.perLayer["store.evictions_per_cycle"] = (storeCounter("store_evictions_total") - evict0) / cycles
	rep.perLayer["store.resident_mb"] = median(st.resident)
	rep.perLayer["store.tax_ratio"] = ratio(median(plain.passes()), median(heapMS))
	rep.perLayer["xmltree.result_bytes_per_pass"] = float64(plain.outBytes)

	// Traced cycles on the store layer's own API.
	tp := &tracedPasses{tr: newTracer(), reqs: st.reqs, refs: su.refs}
	tp.doc = heap // only to prepare; every cycle swaps in the mounted document
	if err := tp.prepareAll(); err != nil {
		return err
	}
	var tracedMS []float64
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < c.share(0.30); cycle++ {
		tr := tp.tr
		// The cycle's own spans carry a Req no pass uses; each pass has its own.
		req := -1 - cycle
		sc := tr.begin("cycle", -1, req, 0)
		so := tr.begin("store.open", sc, req, 0)
		s, doc, err := openDoc(st.dirs, xdm.NewLedger(st.mapped/4))
		tr.end(so)
		if err != nil {
			return fmt.Errorf("store.Open: %w", err)
		}
		tp.doc, tp.probe = doc, s.Health
		for mode := range tp.reqs {
			d, failed := tp.pass(mode, sc, len(tracedMS))
			tracedMS = append(tracedMS, ms(d))
			rep.attempted += len(tp.reqs[mode])
			rep.failed += failed
			ss := tr.begin("store.sample", sc, req, 0)
			s.Sample()
			tr.end(ss)
		}
		sx := tr.begin("store.close", sc, req, 0)
		s.Close()
		tr.end(sx)
		tr.end(sc)
	}
	spans := tp.tr.snapshot()
	coverage := rep.setSpanLayers(spans)
	rep.perLayer["store.open_ms"] = ms(selfTimes(spans)["store.open"]) / (float64(len(tracedMS)) / modes)
	rep.perLayer["obs.trace_overhead_ratio"] = ratio(median(tracedMS), median(plain.passes()))
	rep.note("layer self times cover %.1f%% of the traced pass time (%d traced passes, %d spans)", 100*coverage, len(tracedMS), len(spans))

	if err := storeProbes(c, su, heap, tp, rep); err != nil {
		return err
	}
	return writeTrace(c, tp.tr.snapshot())
}

// storeProbes prices the store's other events: a single-part mount, the
// per-poll health probe, a scrub pass, and a replica failover.
func storeProbes(c runConfig, su *storedSetup, heap *memDoc, tp *tracedPasses, rep *report) error {
	st := su.st

	// A single part aliases its columns zero-copy and needs no reassembly.
	single := filepath.Join(st.root, "single")
	if err := store.WriteDoc([]string{single}, docName, heap.frag); err != nil {
		return fmt.Errorf("write single-part store: %w", err)
	}
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s, err := store.Open([]string{single}, store.Options{})
		if err != nil {
			return fmt.Errorf("open single-part store: %w", err)
		}
		opens = append(opens, ms(time.Since(t0)))
		s.Close()
	}
	rep.perLayer["store.open_single_ms"] = median(opens)

	s, doc, err := openDoc(st.dirs, nil)
	if err != nil {
		return err
	}
	defer func() { s.Close() }()

	const probes = 1 << 20
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		if err := s.Health(); err != nil {
			return fmt.Errorf("store.Health: %w", err)
		}
	}
	rep.perLayer["store.probe_ns"] = float64(time.Since(t0)) / probes

	replicated, err := dirBytes(st.root)
	if err != nil {
		return err
	}
	singleBytes, err := dirBytes(single)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if stats := s.ScrubNow(store.ScrubConfig{}); stats.Errors > 0 {
		return fmt.Errorf("scrub found %d bad files in a fresh store", stats.Errors)
	}
	rep.perLayer["store.scrub_mb_s"] = float64(replicated-singleBytes) / (1 << 20) / time.Since(t0).Seconds()

	// Failover: kill the serving replica of each part in turn; the next
	// execution aborts at its first poll, the store swaps to the standby
	// and the re-execution must return the same bytes.
	prog, rq := tp.progs[ordered][0], tp.reqs[ordered][0]
	exec := func(d *memDoc) (string, error) {
		res, err := vm.Run(prog, d.store, d.docs, vm.Options{Options: engine.Options{StoreProbe: s.Health}})
		if err != nil {
			return "", err
		}
		return res.SerializeXML()
	}
	var clean, faulted []float64
	for part := 0; part < storeShards; part++ {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := exec(doc); err != nil {
				return fmt.Errorf("unfaulted execution: %w", err)
			}
			clean = append(clean, ms(time.Since(t0)))
		}
		sf := tp.tr.begin("store.failover", -1, part, 0)
		t0 := time.Now()
		if err := s.KillReplica(part); err != nil {
			return err
		}
		if _, err := exec(doc); err == nil {
			return fmt.Errorf("execution over a killed replica did not fail")
		}
		healed, err := s.FailoverSuspects()
		if err != nil || len(healed) == 0 {
			return fmt.Errorf("failover of part %d healed nothing: %v", part, err)
		}
		doc = storeDoc(s.Docs())
		out, err := exec(doc)
		faulted = append(faulted, ms(time.Since(t0)))
		tp.tr.end(sf)
		rep.attempted++
		if err != nil || !su.refs.ok(rq.Text, []byte(out)) {
			rep.failed++
		}
	}
	rep.perLayer["store.failover_ms"] = median(faulted) - median(clean)
	return nil
}
