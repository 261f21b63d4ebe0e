package exrquy

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

// writeReplicated persists one XMark instance as a store sharded across
// nDirs directories with the given replication factor.
func writeReplicated(t testing.TB, factor float64, nDirs, replicas int) []string {
	t.Helper()
	frag := xmark.Generate(xmark.Config{Factor: factor})
	base := t.TempDir()
	dirs := make([]string, nDirs)
	for k := range dirs {
		dirs[k] = filepath.Join(base, fmt.Sprintf("shard%d", k))
	}
	if err := store.WriteDocOpts(dirs, "auction.xml", frag, store.WriteOptions{Replicas: replicas}); err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestStoreFailoverXMark is the failover acceptance gate: with a fault
// plan armed that corrupts one replica of one part on every query
// execution (alternating injected I/O errors and checksum mismatches),
// all 20 XMark queries against a replicated store must still return
// byte-identical results to the in-memory engine — with plans flattened
// at Compile and at each run alike — because every fault finds a
// healthy standby replica to fail over to. The same plan against an
// unreplicated store must surface ErrCorrupt naming the part file, and
// never panic or return wrong bytes.
func TestStoreFailoverXMark(t *testing.T) {
	const factor = 0.002

	for _, compiled := range []bool{true, false} {
		ref := New(WithCompiled(compiled))
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

		t.Run(fmt.Sprintf("compiled=%v/replicated", compiled), func(t *testing.T) {
			dirs := writeReplicated(t, factor, 3, 2)
			eng := New(WithCompiled(compiled))
			if _, err := eng.AttachStore(dirs...); err != nil {
				t.Fatalf("attach: %v", err)
			}
			// Every top-level query faults exactly once. Executions number
			// 0,1,2,...; a faulted query's failover retry is the next
			// execution, so queries land on even numbers and retries on
			// odd ones: eio=4 faults executions 0,4,8,... and badcrc=2
			// the remaining even ones — alternating injected I/O errors
			// and checksum mismatches per query, with every retry clean.
			disarm := fault.Arm(&fault.Plan{Seed: 0, Every: fault.PerClass{fault.EIO: 4, fault.BadCRC: 2}})
			defer disarm()
			before := obs.StoreFailoverTotal.Load()
			for _, q := range xmarkq.All() {
				res, err := eng.Query(q.Text)
				if err != nil {
					t.Fatalf("%s under faults: %v", q.Name, err)
				}
				got, err := res.XML()
				if err != nil {
					t.Fatal(err)
				}
				if got != want[q.ID] {
					t.Errorf("%s: failover run differs from in-memory engine\n got: %.200q\nwant: %.200q",
						q.Name, got, want[q.ID])
				}
			}
			if d := obs.StoreFailoverTotal.Load() - before; d < int64(len(xmarkq.All())) {
				t.Errorf("expected at least one failover per query, got %d for %d queries", d, len(xmarkq.All()))
			}
			disarm()
			if _, err := eng.DetachStore(dirs[0]); err != nil {
				t.Fatalf("detach: %v", err)
			}
		})

		t.Run(fmt.Sprintf("compiled=%v/unreplicated", compiled), func(t *testing.T) {
			dirs := writeReplicated(t, factor, 3, 1)
			eng := New(WithCompiled(compiled))
			if _, err := eng.AttachStore(dirs...); err != nil {
				t.Fatalf("attach: %v", err)
			}
			disarm := fault.Arm(&fault.Plan{Seed: 0, Every: fault.PerClass{fault.EIO: 1}})
			defer disarm()
			_, err := eng.Query(xmarkq.All()[0].Text)
			if err == nil {
				t.Fatal("unreplicated store under faults returned a result")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if qerr.IsRetryableCorrupt(err) {
				t.Fatalf("fault with no standby replica must be terminal, got retryable %v", err)
			}
			if !strings.Contains(err.Error(), ".xrq") {
				t.Fatalf("terminal corrupt error must name the part file: %v", err)
			}
			disarm()
			if _, err := eng.DetachStore(dirs[0]); err != nil {
				t.Fatalf("detach: %v", err)
			}
		})
	}
}

// TestStoreFailoverConcurrent races querying workers against an armed
// fault plan, a scrubbing store, and concurrent detach/attach cycles.
// Run under -race in CI: every query must either succeed with the right
// bytes (failover healed it), fail with "unknown document" (raced a
// detach window), or fail with a classified corrupt error — never
// crash, never return wrong bytes.
func TestStoreFailoverConcurrent(t *testing.T) {
	dirs := writeReplicated(t, 0.001, 2, 2)

	eng := New(WithParallelism(4), WithStoreScrub(StoreScrubConfig{Interval: 5 * time.Millisecond}))
	if _, err := eng.AttachStore(dirs...); err != nil {
		t.Fatal(err)
	}
	resWant, err := eng.Query(`count(doc("auction.xml")//item)`)
	if err != nil {
		t.Fatal(err)
	}
	wantXML, err := resWant.XML()
	if err != nil {
		t.Fatal(err)
	}

	// Every third execution faults (mixed kinds).
	disarm := fault.Arm(&fault.Plan{Seed: 1, Every: fault.PerClass{fault.EIO: 3, fault.BadCRC: 5}})
	defer disarm()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Query(`count(doc("auction.xml")//item)`)
				if err != nil {
					if strings.Contains(err.Error(), "unknown document") || errors.Is(err, ErrCorrupt) {
						continue
					}
					t.Errorf("query: %v", err)
					return
				}
				xml, err := res.XML()
				if err != nil {
					t.Errorf("serialize: %v", err)
					return
				}
				if xml != wantXML {
					t.Errorf("got %q, want %q", xml, wantXML)
					return
				}
			}
		}()
	}
	for cycle := 0; cycle < 6; cycle++ {
		if _, err := eng.DetachStore(dirs[0]); err != nil {
			t.Fatalf("detach cycle %d: %v", cycle, err)
		}
		if _, err := eng.AttachStore(dirs...); err != nil {
			t.Fatalf("attach cycle %d: %v", cycle, err)
		}
		eng.ScrubStores(0)
		eng.SampleStores()
	}
	close(stop)
	wg.Wait()
	disarm()
	if _, err := eng.DetachStore(dirs[0]); err != nil {
		t.Fatalf("final detach: %v", err)
	}
}
