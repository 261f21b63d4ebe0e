package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"

	exrquy "repro"
	"repro/internal/xmarkq"
)

// Two independent checks stand behind every run's "correct":
//
//   - oracleCheck compares the pipeline with the reference interpreter
//     (internal/interp) on a small document of the same seed;
//   - buildReferences computes, at full workload size, the result every
//     timed operation must reproduce, with the order-ignorant
//     tree-walking pipeline — neither the optimizer nor the bytecode VM
//     under test takes part.

type digest = [sha256.Size]byte

// references maps a request's text to the digest of its correct result.
type references map[string]digest

// ok reports whether out is the correct result of the request.
func (r references) ok(text string, out []byte) bool {
	want, known := r[text]
	return known && sha256.Sum256(out) == want
}

// evalFunc evaluates one query text on the system under test.
type evalFunc func(text string) (*exrquy.Result, error)

// permutable reports whether a request's result may legitimately come
// back in another order than the ordered reference: every unordered
// request, and Q10, whose order is implementation-dependent.
func permutable(rq request) bool {
	return rq.Mode == unordered || !xmarkq.Get(rq.Query).OrderedDeterministic
}

// buildReferences evaluates every request on the baseline pipeline and
// on the candidate. Where the candidate returns an admissible
// permutation of the baseline's items, its own bytes become the
// reference (so timed runs are also checked for determinism); anywhere
// else the baseline's bytes are. It returns how many requests the
// candidate already got wrong.
func buildReferences(xml []byte, reqs []request, candidate evalFunc) (references, int, error) {
	base := exrquy.New(exrquy.WithOrderIndifference(false), exrquy.WithCompiled(false))
	if err := base.LoadDocument(docName, bytes.NewReader(xml)); err != nil {
		return nil, 0, fmt.Errorf("reference engine: %w", err)
	}
	refs := make(references, len(reqs))
	wrong := 0
	for _, rq := range reqs {
		want, err := base.Query(rq.Text)
		if err != nil {
			return nil, 0, fmt.Errorf("reference Q%d: %w", rq.Query, err)
		}
		wantXML, err := want.XML()
		if err != nil {
			return nil, 0, fmt.Errorf("reference Q%d: %w", rq.Query, err)
		}
		refs[rq.Text] = sha256.Sum256([]byte(wantXML))
		got, err := candidate(rq.Text)
		if err != nil {
			wrong++
			continue
		}
		gotXML, err := got.XML()
		switch {
		case err != nil:
			wrong++
		case gotXML == wantXML:
		case permutable(rq) && sameBag(want, got):
			refs[rq.Text] = sha256.Sum256([]byte(gotXML))
		default:
			wrong++
		}
	}
	return refs, wrong, nil
}

// sameBag compares two results as multisets of serialized items.
func sameBag(a, b *exrquy.Result) bool {
	as, errA := a.Items()
	bs, errB := b.Items()
	if errA != nil || errB != nil || len(as) != len(bs) {
		return false
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// oracleCheck runs all 20 queries in both modes on a small document of
// the run's seed and compares each with the reference interpreter:
// byte-equal where the order is defined, as bags elsewhere. It returns
// the number of comparisons and how many failed.
func oracleCheck(seed uint64) (checked, failed int, err error) {
	eng := exrquy.New()
	if err := eng.LoadDocument(docName, bytes.NewReader(genXML(oracleFactor, seed))); err != nil {
		return 0, 0, fmt.Errorf("oracle document: %w", err)
	}
	reqs := requestsFor(allQueries)
	for i, id := range allQueries {
		want, err := eng.Reference(xmarkq.Get(id).Text)
		if err != nil {
			return 0, 0, fmt.Errorf("oracle Q%d: %w", id, err)
		}
		for mode := range reqs {
			rq := reqs[mode][i]
			checked++
			got, err := eng.Query(rq.Text)
			if err != nil {
				failed++
				continue
			}
			if permutable(rq) {
				if !sameBag(want, got) {
					failed++
				}
				continue
			}
			wantXML, errW := want.XML()
			gotXML, errG := got.XML()
			if errW != nil || errG != nil || wantXML != gotXML {
				failed++
			}
		}
	}
	return checked, failed, nil
}
