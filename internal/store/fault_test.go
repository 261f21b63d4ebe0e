package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/qerr"
)

// The storage classes of the fault spec grammar, as the docs write them.
func TestParseFaultSpec(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		for _, spec := range []string{"", "   "} {
			plan, err := fault.Parse(spec)
			if err != nil || plan != nil {
				t.Fatalf("fault.Parse(%q) = %v, %v; want nil, nil", spec, plan, err)
			}
		}
	})
	t.Run("full", func(t *testing.T) {
		plan, err := fault.Parse("seed=7, eio=11,badcrc=13,shortread=17,mmap=19,torn=23")
		if err != nil {
			t.Fatalf("fault.Parse: %v", err)
		}
		want := fault.PerClass{fault.EIO: 11, fault.BadCRC: 13, fault.ShortRead: 17, fault.Mmap: 19, fault.Torn: 23}
		if plan.Seed != 7 || plan.Every != want {
			t.Fatalf("fault.Parse = seed %d every %v, want seed 7 every %v", plan.Seed, plan.Every, want)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, spec := range []string{"eio", "eio=x", "bogus=3", "eio=3,"} {
			if _, err := fault.Parse(spec); err == nil {
				t.Errorf("fault.Parse(%q) succeeded, want error", spec)
			}
		}
	})
}

// A short-read open fault on an unreplicated store must fail the mount
// with ErrCorrupt naming the part file, exactly as real truncation would.
func TestOpenFaultUnreplicated(t *testing.T) {
	frag := genFrag(t, 0.001)
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "auction.xml", frag); err != nil {
		t.Fatalf("WriteDoc: %v", err)
	}
	defer fault.Arm(&fault.Plan{Every: fault.PerClass{fault.ShortRead: 1}})()
	st, err := Open([]string{dir}, Options{})
	if err == nil {
		st.Close()
		t.Fatal("mount succeeded with every open faulting")
	}
	if !errors.Is(err, qerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), ".xrq") {
		t.Fatalf("error does not name the part file: %v", err)
	}
}

// With replicas, an open fault on the first copy fails over at mount
// time: the standby serves, the mount succeeds, and the store reports
// itself degraded rather than failed.
func TestMountFailoverOnOpenFault(t *testing.T) {
	frag := genFrag(t, 0.001)
	dirs := []string{t.TempDir(), t.TempDir()}
	if err := WriteDocOpts(dirs, "auction.xml", frag, WriteOptions{Replicas: 2}); err != nil {
		t.Fatalf("WriteDocOpts: %v", err)
	}
	// Seed 0, every other open faults: each part's replica 0 is probed
	// first and faults, its replica 1 follows and succeeds.
	defer fault.Arm(&fault.Plan{Seed: 0, Every: fault.PerClass{fault.Mmap: 2}})()
	st, err := Open(dirs, Options{})
	if err != nil {
		t.Fatalf("replicated mount did not fail over: %v", err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Failovers != int64(len(stats.Parts)) {
		t.Fatalf("want %d mount failovers, got %d", len(stats.Parts), stats.Failovers)
	}
	if stats.Health != "degraded" {
		t.Fatalf("want degraded health, got %q", stats.Health)
	}
	for _, p := range stats.Parts {
		if p.Replica != 1 {
			t.Fatalf("part %d served by replica %d, want the standby", p.Index, p.Replica)
		}
	}
	fragsEqual(t, frag, st.Docs()[0].Frag)
}

// The kill-during-write regression: a crash between writing part files
// and publishing manifests must leave the directory mountable with the
// new document invisible, and a rerun of the same write must succeed.
// This is what the WriteDoc fsync ordering (data durable before the
// manifest names it) buys.
func TestTornWriteLeavesStoreConsistent(t *testing.T) {
	frag := genFrag(t, 0.001)
	doc2 := genFrag(t, 0.0015)
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "first.xml", frag); err != nil {
		t.Fatalf("WriteDoc: %v", err)
	}

	disarm := fault.Arm(&fault.Plan{Every: fault.PerClass{fault.Torn: 1}})
	err := WriteDoc([]string{dir}, "second.xml", doc2)
	disarm()
	if err == nil || !strings.Contains(err.Error(), "torn write") {
		t.Fatalf("want injected torn-write crash, got %v", err)
	}

	// The torn write left orphaned part files no manifest names: the
	// store mounts, and only the first document exists.
	st, err := Open([]string{dir}, Options{})
	if err != nil {
		t.Fatalf("mount after torn write: %v", err)
	}
	docs := st.Docs()
	st.Close()
	if len(docs) != 1 || docs[0].URI != "first.xml" {
		t.Fatalf("after torn write want only first.xml, got %+v", docs)
	}

	// Rerunning the write overwrites the orphans and publishes.
	if err := WriteDoc([]string{dir}, "second.xml", doc2); err != nil {
		t.Fatalf("rerun after torn write: %v", err)
	}
	st, err = Open([]string{dir}, Options{})
	if err != nil {
		t.Fatalf("mount after rerun: %v", err)
	}
	defer st.Close()
	byURI := map[string]DocEntry{}
	for _, d := range st.Docs() {
		byURI[d.URI] = d
	}
	if len(byURI) != 2 {
		t.Fatalf("want 2 docs after rerun, got %+v", st.Docs())
	}
	fragsEqual(t, frag, byURI["first.xml"].Frag)
	fragsEqual(t, doc2, byURI["second.xml"].Frag)
}

// A corrupt standby replica is found by the scrubber, quarantined
// (renamed aside, manifest annotated) and restored byte-identical from
// the healthy active copy — and the repaired directory set mounts clean.
func TestScrubQuarantinesAndRereplicates(t *testing.T) {
	frag := genFrag(t, 0.001)
	dirs := []string{t.TempDir(), t.TempDir()}
	if err := WriteDocOpts(dirs, "auction.xml", frag, WriteOptions{Replicas: 2}); err != nil {
		t.Fatalf("WriteDocOpts: %v", err)
	}
	st, err := Open(dirs, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	// Part 0's active copy lives in dirs[0], its standby in dirs[1]:
	// flip a byte inside the standby's value heap.
	file := partFileName("auction.xml", 0)
	standby := filepath.Join(dirs[1], file)
	healthy := filepath.Join(dirs[0], file)
	fi, err := os.Stat(standby)
	if err != nil {
		t.Fatal(err)
	}
	patchByteXor(t, standby, fi.Size()-8)

	stats := st.ScrubNow(ScrubConfig{})
	if stats.Errors < 1 || stats.Quarantined < 1 || stats.Rereplicated < 1 {
		t.Fatalf("scrub missed the corrupt standby: %+v", stats)
	}
	if _, err := os.Stat(standby + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	want, err := os.ReadFile(healthy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(standby)
	if err != nil {
		t.Fatalf("re-replicated standby missing: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("re-replicated standby differs from the healthy copy")
	}

	// A second pass over the repaired store finds nothing new.
	again := st.ScrubNow(ScrubConfig{})
	if again.Errors != stats.Errors || again.Quarantined != stats.Quarantined {
		t.Fatalf("repaired store still scrubs dirty: %+v then %+v", stats, again)
	}

	// The repaired directories mount clean and round-trip the document.
	st2, err := Open(dirs, Options{})
	if err != nil {
		t.Fatalf("remount after repair: %v", err)
	}
	defer st2.Close()
	fragsEqual(t, frag, st2.Docs()[0].Frag)
	if h := st2.Stats().Health; h != "ok" {
		t.Fatalf("remounted store health = %q, want ok", h)
	}
}

// Replication round trip: the replicated layout mounts healthy, reports
// its replica topology, and a killed replica fails over to a standby
// that reassembles the identical document.
func TestReplicationRoundTrip(t *testing.T) {
	frag := genFrag(t, 0.001)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	if err := WriteDocOpts(dirs, "auction.xml", frag, WriteOptions{Replicas: 2}); err != nil {
		t.Fatalf("WriteDocOpts: %v", err)
	}
	st, err := Open(dirs, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Health != "ok" {
		t.Fatalf("health = %q, want ok", stats.Health)
	}
	for _, p := range stats.Parts {
		if p.Replicas != 2 || p.Replica != 0 || p.State != "healthy" {
			t.Fatalf("part %d topology %+v, want replica 0 of 2, healthy", p.Index, p)
		}
	}
	fragsEqual(t, frag, st.Docs()[0].Frag)

	if err := st.KillReplica(0); err != nil {
		t.Fatalf("KillReplica: %v", err)
	}
	herr := st.Health()
	if herr == nil || !qerr.IsRetryableCorrupt(herr) {
		t.Fatalf("killed replica with a standby must be retryable, got %v", herr)
	}
	healed, err := st.FailoverSuspects()
	if err != nil {
		t.Fatalf("FailoverSuspects: %v", err)
	}
	if len(healed) != 1 || healed[0].URI != "auction.xml" {
		t.Fatalf("healed %+v, want auction.xml", healed)
	}
	fragsEqual(t, frag, healed[0].Frag)
	if err := st.Health(); err != nil {
		t.Fatalf("health after failover: %v", err)
	}
	p0 := st.Stats().Parts[0]
	if p0.Replica != 1 || p0.State != "healthy" {
		t.Fatalf("part 0 after failover %+v, want healthy on replica 1", p0)
	}
}

// Replicas demand distinct directories: R > len(dirs) cannot place two
// copies of a part on different disks and must refuse.
func TestReplicationNeedsDistinctDirs(t *testing.T) {
	frag := genFrag(t, 0.001)
	err := WriteDocOpts([]string{t.TempDir()}, "a.xml", frag, WriteOptions{Replicas: 2})
	if err == nil {
		t.Fatal("2 replicas on 1 directory accepted")
	}
}

// patchByteXor flips one byte at off in path.
func patchByteXor(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, off); err != nil {
		t.Fatal(err)
	}
}
