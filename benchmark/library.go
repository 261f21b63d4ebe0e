package main

import (
	"bytes"
	"fmt"
	"time"

	exrquy "repro"
)

// libSpec describes an in-memory library workload: a document size, a
// query list, and whether plans are compiled once and reused.
type libSpec struct {
	name   string
	factor float64
	ids    []int
	reuse  bool
}

var libSpecs = []libSpec{
	{"paths", pathsFactor, pathQueries, true},
	{"joins", joinsFactor, joinQueries, true},
	{"adhoc", adhocFactor, allQueries, false},
}

// libState is one completed set-up of a library workload.
type libState struct {
	eng   *exrquy.Engine
	reqs  [modes][]request
	plans [modes][]*exrquy.Query // nil without plan reuse
}

// op is the operation: one query evaluated and serialized to bytes.
func (s *libState) op(mode, i int) (string, error) {
	var res *exrquy.Result
	var err error
	if s.plans[mode] != nil {
		res, err = s.plans[mode][i].Execute()
	} else {
		res, err = s.eng.Query(s.reqs[mode][i].Text)
	}
	if err != nil {
		return "", err
	}
	return res.XML()
}

// compile prepares every request once (plan-reusing workloads).
func (s *libState) compile() error {
	for mode := range s.reqs {
		s.plans[mode] = make([]*exrquy.Query, len(s.reqs[mode]))
		for i, rq := range s.reqs[mode] {
			q, err := s.eng.Compile(rq.Text)
			if err != nil {
				return fmt.Errorf("compile Q%d: %w", rq.Query, err)
			}
			s.plans[mode][i] = q
		}
	}
	return nil
}

// warm runs one pass per mode untimed.
func (s *libState) warm() error {
	for mode := range s.reqs {
		for i, rq := range s.reqs[mode] {
			if _, err := s.op(mode, i); err != nil {
				return fmt.Errorf("warm-up Q%d: %w", rq.Query, err)
			}
		}
	}
	return nil
}

// libSetup is the samples and the final state of a workload's set-ups.
type libSetup struct {
	xml                  []byte
	state                *libState
	setups, gens, loads  []float64 // s, ms, ms
	verify               time.Duration
	refs                 references
	oracleBad, refsWrong int
}

func loadXML(eng *exrquy.Engine, xml []byte) (time.Duration, error) {
	t0 := time.Now()
	err := eng.LoadDocument(docName, bytes.NewReader(xml))
	return time.Since(t0), err
}

// setUpLibrary sets the workload up setupReps times from nothing, keeps
// the last, takes more load samples if loading is quick, and then —
// outside setup_s — builds the references and runs the oracle check.
func setUpLibrary(spec libSpec, c runConfig) (*libSetup, error) {
	su := &libSetup{}
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		su.xml = genXML(spec.factor, c.seed)
		su.gens = append(su.gens, ms(time.Since(t0)))
		st := &libState{eng: exrquy.New(), reqs: requestsFor(spec.ids)}
		d, err := loadXML(st.eng, su.xml)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		su.loads = append(su.loads, ms(d))
		if spec.reuse {
			if err := st.compile(); err != nil {
				return nil, err
			}
		}
		if err := st.warm(); err != nil {
			return nil, err
		}
		su.setups = append(su.setups, time.Since(t0).Seconds())
		su.state = st
	}
	for su.wantsLoad() {
		d, err := loadXML(exrquy.New(), su.xml)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		su.loads = append(su.loads, ms(d))
	}
	if err := su.check(c, su.state.reqs, su.state.eng.Query); err != nil {
		return nil, err
	}
	return su, nil
}

// wantsLoad reports whether load_ms needs another sample: small
// documents are loaded again after set-up, up to maxLoadSamples or
// loadBudget of loading, whichever comes first.
func (su *libSetup) wantsLoad() bool {
	return len(su.loads) < maxLoadSamples && sum(su.loads) < ms(loadBudget)
}

// check builds the full-size references against the candidate and runs
// the oracle check on the small document.
func (su *libSetup) check(c runConfig, reqs [modes][]request, candidate evalFunc) error {
	t0 := time.Now()
	_, bad, err := oracleCheck(c.seed)
	if err != nil {
		return err
	}
	su.oracleBad = bad
	su.verify = time.Since(t0)
	su.refs, su.refsWrong, err = buildReferences(su.xml, flatten(reqs), candidate)
	return err
}

func runLibrary(spec libSpec, c runConfig) (*report, error) {
	su, err := setUpLibrary(spec, c)
	if err != nil {
		return nil, err
	}
	rep := newReport(spec.name)
	rep.failed += su.oracleBad + su.refsWrong
	loop := &pairLoop{reqs: su.state.reqs, refs: su.refs, op: su.state.op}
	if !c.trace {
		t, err := loop.run(c.share(1))
		if err != nil {
			return nil, err
		}
		rep.setEndToEnd(t, su.setups, su.loads)
		return rep, nil
	}
	return rep, traceLibrary(spec, c, su, loop, rep)
}
