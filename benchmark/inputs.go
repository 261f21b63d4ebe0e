package main

import (
	"bytes"
	"math/rand"

	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

// Everything the program under test sees is made here from the run's
// seed: the XMark document and the order of requests.

const docName = "auction.xml"

// Ordering modes, chosen in the query text so that library and HTTP paths
// see identical input.
const (
	ordered = iota
	unordered
	modes
)

const unorderedProlog = "declare ordering unordered;\n"

var (
	pathQueries = []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20}
	joinQueries = []int{8, 9, 10, 11, 12}
	allQueries  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
)

// Document sizes. The oracle document is small because the reference
// interpreter is quadratic on the join queries.
const (
	pathsFactor  = 0.1   // ~7.5 MB of XML, ~400k nodes
	joinsFactor  = 0.005 // ~0.4 MB
	adhocFactor  = 0.002 // ~0.15 MB
	serveFactor  = 0.005
	oracleFactor = 0.005
)

// genXML generates the run's document as XML text.
func genXML(factor float64, seed uint64) []byte {
	var buf bytes.Buffer
	// A bytes.Buffer never fails a write, so StreamXML cannot fail here.
	_ = xmark.StreamXML(&buf, xmark.Config{Factor: factor, Seed: seed})
	return buf.Bytes()
}

// request is one operation's input: a query in one ordering mode.
type request struct {
	Query int // XMark query number
	Mode  int
	Text  string
}

// requestsFor returns the workload's requests grouped by mode, each
// group in query-list order: one group is one pass.
func requestsFor(ids []int) [modes][]request {
	var out [modes][]request
	for _, id := range ids {
		text := xmarkq.Get(id).Text
		out[ordered] = append(out[ordered], request{id, ordered, text})
		out[unordered] = append(out[unordered], request{id, unordered, unorderedProlog + text})
	}
	return out
}

// flatten lists the requests of both modes, ordered first.
func flatten(reqs [modes][]request) []request {
	return append(append([]request(nil), reqs[ordered]...), reqs[unordered]...)
}

// shuffle returns a permutation of 0..n-1 fixed by the run's seed and a
// stream number (client and walk), so every client walks its own
// reproducible order.
func shuffle(seed uint64, stream, n int) []int {
	r := rand.New(rand.NewSource(int64(seed)*1000003 + int64(stream)))
	return r.Perm(n)
}
