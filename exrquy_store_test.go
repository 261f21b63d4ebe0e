package exrquy

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

// buildCorpus generates one XMark instance and persists it twice: as a
// single-part store and sharded across three directories. Returns the
// factor's fragment byte volume via the unsharded store's mapped size.
func buildCorpus(t testing.TB, factor float64) (single string, shards []string) {
	t.Helper()
	frag := xmark.Generate(xmark.Config{Factor: factor})
	base := t.TempDir()
	single = filepath.Join(base, "single")
	if err := store.WriteDoc([]string{single}, "auction.xml", frag); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		shards = append(shards, filepath.Join(base, fmt.Sprintf("shard%d", k)))
	}
	if err := store.WriteDoc(shards, "auction.xml", frag); err != nil {
		t.Fatal(err)
	}
	return single, shards
}

// TestStoreDifferentialXMark is the tentpole acceptance gate: all 20
// XMark queries, evaluated against the mmap-backed store — unsharded
// and sharded three ways — must produce byte-identical output to the
// in-memory engine over the same corpus, with plans flattened at Compile
// and at each run, with the store held under a byte ledger
// several times smaller than the mapped corpus (so the run actually
// exercises demand paging and pressure eviction, not just the format).
func TestStoreDifferentialXMark(t *testing.T) {
	const factor = 0.003
	single, shards := buildCorpus(t, factor)

	for _, compiled := range []bool{true, false} {
		// In-memory reference: same factor, same generator seed, loaded
		// straight from the generator without touching disk.
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

		for _, tc := range []struct {
			mode string
			dirs []string
		}{
			{"ooc", []string{single}},
			{"shard3", shards},
		} {
			name := fmt.Sprintf("compiled=%v/%s", compiled, tc.mode)
			t.Run(name, func(t *testing.T) {
				// Budget the store ledger at a quarter of the mapped
				// corpus: the store must stay correct while it cannot
				// all be resident at once.
				probe, err := store.Open(tc.dirs, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				mapped := probe.Stats().MappedBytes
				probe.Close()

				eng := New(WithCompiled(compiled), WithStoreBudget(mapped/4))
				uris, err := eng.AttachStore(tc.dirs...)
				if err != nil {
					t.Fatalf("attach: %v", err)
				}
				if len(uris) != 1 || uris[0] != "auction.xml" {
					t.Fatalf("mounted %v", uris)
				}
				for _, q := range xmarkq.All() {
					res, err := eng.Query(q.Text)
					if err != nil {
						t.Fatalf("%s: %v", q.Name, err)
					}
					got, err := res.XML()
					if err != nil {
						t.Fatal(err)
					}
					if got != want[q.ID] {
						t.Errorf("%s: store-backed output differs from in-memory engine\n got: %.200q\nwant: %.200q",
							q.Name, got, want[q.ID])
					}
					eng.SampleStores() // keep paging pressure honest mid-run
					if used := eng.storeLedger.Used(); used > mapped/4 {
						t.Fatalf("store ledger oversubscribed: %d > %d", used, mapped/4)
					}
				}
				if _, err := eng.DetachStore(tc.dirs[0]); err != nil {
					t.Fatalf("detach: %v", err)
				}
				if _, err := eng.Query(`count(doc("auction.xml"))`); err == nil ||
					!strings.Contains(err.Error(), "unknown document") {
					t.Fatalf("detached document still resolvable: %v", err)
				}
			})
		}
	}
}

// TestStoreConcurrentAttachDetach races scatter/gather queries against
// hot attach/detach cycles of the store they read. Run
// under -race in CI: queries must either succeed or fail with "unknown
// document" (when they start after a detach), never crash or read
// unmapped memory.
func TestStoreConcurrentAttachDetach(t *testing.T) {
	frag := xmark.Generate(xmark.Config{Factor: 0.001})
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1")}
	if err := store.WriteDoc(dirs, "ooc.xml", frag); err != nil {
		t.Fatal(err)
	}

	eng := New()
	eng.LoadXMark("auction.xml", 0.001)
	if _, err := eng.AttachStore(dirs...); err != nil {
		t.Fatal(err)
	}

	// Aggregate-only queries: their results carry no node references, so
	// they stay valid after the store detaches beneath them.
	q1, err := eng.Compile(`count(doc("ooc.xml")//item)`)
	if err != nil {
		t.Fatal(err)
	}
	wantXML, err := mustRun(t, q1)
	if err != nil {
		t.Fatal(err)
	}

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
				res, err := eng.Query(`count(doc("ooc.xml")//item)`)
				if err != nil {
					if strings.Contains(err.Error(), "unknown document") {
						continue // raced a detach window
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
	for cycle := 0; cycle < 10; cycle++ {
		if _, err := eng.DetachStore(dirs[0]); err != nil {
			t.Fatalf("detach cycle %d: %v", cycle, err)
		}
		if _, err := eng.AttachStore(dirs...); err != nil {
			t.Fatalf("attach cycle %d: %v", cycle, err)
		}
		eng.SampleStores()
	}
	close(stop)
	wg.Wait()

	if _, err := eng.DetachStore("no-such-dir"); err == nil {
		t.Fatal("detaching an unknown mount must fail")
	}
	if _, err := eng.AttachStore(dirs...); err == nil {
		t.Fatal("double attach must fail")
	} else if _, derr := eng.DetachStore(dirs[0]); derr != nil {
		t.Fatalf("final detach: %v", derr)
	}
}

// TestDetachStoreReleasesFragments: attach/detach cycles, each with a
// replica failover that re-registers the healed document under a fresh
// fragment id, must leave the engine's store holding exactly the live
// fragments it held before the first attach.
func TestDetachStoreReleasesFragments(t *testing.T) {
	dirs := writeReplicated(t, 0.001, 2, 2)
	eng := New()
	eng.LoadXMark("mem.xml", 0.001)
	live := func() int { return liveFragments(eng) }
	before := live()
	for cycle := 0; cycle < 4; cycle++ {
		if _, err := eng.AttachStore(dirs...); err != nil {
			t.Fatalf("attach cycle %d: %v", cycle, err)
		}
		eng.mu.RLock()
		st := eng.mounts[storeKey(dirs[0])].st
		eng.mu.RUnlock()
		if err := st.KillReplica(0); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(`count(doc("auction.xml")//item)`); err != nil {
			t.Fatalf("cycle %d: query over a failed-over store: %v", cycle, err)
		}
		if _, err := eng.DetachStore(dirs[0]); err != nil {
			t.Fatalf("detach cycle %d: %v", cycle, err)
		}
	}
	if got := live(); got != before {
		t.Fatalf("%d live fragments after 4 attach/detach cycles, want %d as before the first", got, before)
	}
	if _, err := eng.Query(`count(doc("mem.xml")//item)`); err != nil {
		t.Fatalf("in-memory document lost: %v", err)
	}
}

// liveFragments counts the engine store's fragments not yet released.
func liveFragments(eng *Engine) int {
	n := 0
	for id := 0; id < eng.store.Len(); id++ {
		if eng.store.Frag(uint32(id)) != nil {
			n++
		}
	}
	return n
}

// TestReplaceReleasesFragments: removing documents and reloading them
// over an existing name (what PUT/DELETE /documents/{name} do to a
// serving engine) must release the replaced fragments, so the store's
// live-fragment count stays where it started — except for fragments an
// attached store owns, which stay live until DetachStore releases them.
func TestReplaceReleasesFragments(t *testing.T) {
	eng := New()
	eng.LoadXMark("mem.xml", 0.001)
	before := liveFragments(eng)
	for i := 0; i < 4; i++ {
		eng.LoadXMark("mem.xml", 0.001)
		if err := eng.LoadDocumentString("tmp.xml", "<a/>"); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadDocument("tmp.xml", strings.NewReader("<b/>")); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadDocumentLimited("tmp.xml", strings.NewReader("<c/>"), DefaultDocumentLimits()); err != nil {
			t.Fatal(err)
		}
		if !eng.RemoveDocument("tmp.xml") {
			t.Fatal("RemoveDocument: tmp.xml not registered")
		}
	}
	if got := liveFragments(eng); got != before {
		t.Fatalf("%d live fragments after 4 reload/remove cycles, want %d as before the first", got, before)
	}
	if _, err := eng.Query(`count(doc("mem.xml")//item)`); err != nil {
		t.Fatalf("reloaded document lost: %v", err)
	}

	dirs := writeReplicated(t, 0.001, 1, 1)
	if _, err := eng.AttachStore(dirs...); err != nil {
		t.Fatal(err)
	}
	mounted := liveFragments(eng)
	if err := eng.LoadDocumentString("auction.xml", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if got := liveFragments(eng); got != mounted+1 {
		t.Fatalf("loading over a mounted document: %d live fragments, want %d (the mount keeps its own)", got, mounted+1)
	}
	// A heal landing after the reload (a scrub or failover re-registering
	// the mount's documents) leaves the reloaded name alone.
	m := eng.mounts[storeKey(dirs[0])]
	eng.registerHealed(m, m.st.Docs())
	if got := liveFragments(eng); got != mounted+1 {
		t.Fatalf("heal after reload: %d live fragments, want %d", got, mounted+1)
	}
	wantDoc(t, eng, "auction.xml", "<a/>")
	if _, err := eng.DetachStore(dirs[0]); err != nil {
		t.Fatal(err)
	}
	if got := liveFragments(eng); got != mounted {
		t.Fatalf("after detach: %d live fragments, want %d", got, mounted)
	}
	// The detach leaves the name the reload re-pointed.
	wantDoc(t, eng, "auction.xml", "<a/>")

	// Attaching over a loaded document releases the replaced fragment.
	eng = New()
	if err := eng.LoadDocumentString("auction.xml", "<b/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AttachStore(dirs...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DetachStore(dirs[0]); err != nil {
		t.Fatal(err)
	}
	if got, docs := liveFragments(eng), eng.Documents(); got != 0 || len(docs) != 0 {
		t.Fatalf("load, attach over it, detach: %d live fragments, documents %v; want none", got, docs)
	}
}

// wantDoc asserts doc(name) serializes as want.
func wantDoc(t *testing.T, eng *Engine, name, want string) {
	t.Helper()
	res, err := eng.Query(`doc("` + name + `")/*`)
	if err != nil {
		t.Fatalf("doc(%q): %v", name, err)
	}
	if got, err := res.XML(); err != nil || got != want {
		t.Fatalf("doc(%q) = %q, %v; want %q", name, got, err, want)
	}
}

func mustRun(t *testing.T, q *Query) (string, error) {
	t.Helper()
	res, err := q.Execute()
	if err != nil {
		return "", err
	}
	return res.XML()
}

// TestAttachCorruptStore: a corrupt store must fail to attach with
// ErrCorrupt and leave the engine's registry untouched.
func TestAttachCorruptStore(t *testing.T) {
	eng := New()
	if _, err := eng.AttachStore(t.TempDir()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if docs := eng.Documents(); len(docs) != 0 {
		t.Fatalf("registry polluted by failed attach: %v", docs)
	}
}
