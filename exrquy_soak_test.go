package exrquy

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/xmarkq"
)

// TestScrubSoak is the storage-chaos soak the nightly lane runs under
// the race detector: a governed engine serves all 20 XMark queries in a
// loop from a replicated store while a fault plan corrupts one replica
// per query and the background scrubber re-verifies checksums every few
// milliseconds. The run must end clean — every result byte-identical to
// the in-memory engine, the governor's ledger drained back to zero, and
// no goroutine leaked across detach.
func TestScrubSoak(t *testing.T) {
	const (
		factor = 0.002
		rounds = 3
	)
	baseline := runtime.NumGoroutine()

	ref := New()
	ref.LoadXMark("auction.xml", factor)
	want := make(map[int]string)
	for _, q := range xmarkq.All() {
		res, err := ref.Query(q.Text)
		if err != nil {
			t.Fatalf("in-memory %s: %v", q.Name, err)
		}
		xml, err := res.XML()
		if err != nil {
			t.Fatal(err)
		}
		want[q.ID] = xml
	}

	dirs := writeReplicated(t, factor, 3, 2)
	gov := NewGovernor(GovernorConfig{MaxBytes: 256 << 20})
	eng := New(WithGovernor(gov), WithStoreScrub(StoreScrubConfig{Interval: 2 * time.Millisecond}))
	if _, err := eng.AttachStore(dirs...); err != nil {
		t.Fatalf("attach: %v", err)
	}

	// The retry-parity plan (see TestStoreFailoverXMark): every top-level
	// query execution faults exactly once, every failover retry is clean.
	disarm := fault.Arm(&fault.Plan{Seed: 0, Every: fault.PerClass{fault.EIO: 4, fault.BadCRC: 2}})
	defer disarm()
	for round := 0; round < rounds; round++ {
		for _, q := range xmarkq.All() {
			res, err := eng.Query(q.Text)
			if err != nil {
				t.Fatalf("round %d %s under faults: %v", round, q.Name, err)
			}
			got, err := res.XML()
			if err != nil {
				t.Fatal(err)
			}
			if got != want[q.ID] {
				t.Fatalf("round %d %s: soak run differs from in-memory engine", round, q.Name)
			}
		}
	}
	disarm()

	// The scrubber must have completed passes while the queries ran (its
	// interval is a few ms; the soak above takes far longer), and one
	// final synchronous pass over the repaired store must find nothing.
	for key, st := range eng.ScrubStores(0) {
		if st.Passes < 1 || st.PartsVerified < 1 {
			t.Errorf("scrubber idle on %s: %+v", key, st)
		}
		if st.Quarantined != st.Rereplicated {
			t.Errorf("%s: %d quarantined but %d re-replicated", key, st.Quarantined, st.Rereplicated)
		}
	}

	if got := gov.Stats().BytesInUse; got != 0 {
		t.Errorf("governor ledger did not drain: %d bytes still reserved", got)
	}
	if _, err := eng.DetachStore(dirs[0]); err != nil {
		t.Fatalf("detach: %v", err)
	}

	// Detach stops the scrubber and unmaps the store once queries drain:
	// the goroutine count must settle back to the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
