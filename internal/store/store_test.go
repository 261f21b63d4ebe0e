package store

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func genFrag(t testing.TB, factor float64) *xmltree.Fragment {
	t.Helper()
	return xmark.Generate(xmark.Config{Factor: factor})
}

func fragsEqual(t *testing.T, want, got *xmltree.Fragment) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("node count: want %d, got %d", want.Len(), got.Len())
	}
	for i := int32(0); i < int32(want.Len()); i++ {
		if want.Kind[i] != got.Kind[i] || want.Size[i] != got.Size[i] ||
			want.Level[i] != got.Level[i] || want.Parent[i] != got.Parent[i] ||
			want.NodeName(i) != got.NodeName(i) || want.Value[i] != got.Value[i] {
			t.Fatalf("node %d differs: want {%v %q %q %d %d %d}, got {%v %q %q %d %d %d}",
				i, want.Kind[i], want.NodeName(i), want.Value[i], want.Size[i], want.Level[i], want.Parent[i],
				got.Kind[i], got.NodeName(i), got.Value[i], got.Size[i], got.Level[i], got.Parent[i])
		}
	}
	if xmltree.SerializeToString(want, 0, xmltree.SerializeOptions{}) !=
		xmltree.SerializeToString(got, 0, xmltree.SerializeOptions{}) {
		t.Fatal("serialized text differs")
	}
}

func TestRoundTripSinglePart(t *testing.T) {
	frag := genFrag(t, 0.001)
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "auction.xml", frag); err != nil {
		t.Fatalf("WriteDoc: %v", err)
	}
	st, err := Open([]string{dir}, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	docs := st.Docs()
	if len(docs) != 1 || docs[0].URI != "auction.xml" || docs[0].Parts != 1 {
		t.Fatalf("unexpected docs: %+v", docs)
	}
	fragsEqual(t, frag, docs[0].Frag)
}

func TestRoundTripSharded(t *testing.T) {
	frag := genFrag(t, 0.001)
	for _, shards := range []int{2, 3, 7} {
		dirs := make([]string, shards)
		base := t.TempDir()
		for k := range dirs {
			dirs[k] = filepath.Join(base, "shard", string(rune('a'+k)))
		}
		if err := WriteDoc(dirs, "auction.xml", frag); err != nil {
			t.Fatalf("WriteDoc %d shards: %v", shards, err)
		}
		st, err := Open(dirs, Options{})
		if err != nil {
			t.Fatalf("Open %d shards: %v", shards, err)
		}
		docs := st.Docs()
		if len(docs) != 1 || docs[0].Parts != shards {
			st.Close()
			t.Fatalf("unexpected docs: %+v", docs)
		}
		fragsEqual(t, frag, docs[0].Frag)
		st.Close()
	}
}

func TestShardCoverage(t *testing.T) {
	frag := genFrag(t, 0.001)
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "a"), filepath.Join(base, "b"), filepath.Join(base, "c")}
	if err := WriteDoc(dirs, "auction.xml", frag); err != nil {
		t.Fatal(err)
	}
	// Missing shard: mounting a strict subset must fail as corrupt, not
	// silently serve a partial document.
	if _, err := Open(dirs[:2], Options{}); !errors.Is(err, qerr.ErrCorrupt) {
		t.Fatalf("partial mount: want ErrCorrupt, got %v", err)
	}
	// Shards mount in any directory order.
	st, err := Open([]string{dirs[2], dirs[0], dirs[1]}, Options{})
	if err != nil {
		t.Fatalf("out-of-order mount: %v", err)
	}
	fragsEqual(t, frag, st.Docs()[0].Frag)
	st.Close()
}

func TestMultipleDocsAcrossDirs(t *testing.T) {
	a, b := genFrag(t, 0.001), genFrag(t, 0.002)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := WriteDoc([]string{dir1}, "a.xml", a); err != nil {
		t.Fatal(err)
	}
	if err := WriteDoc([]string{dir2}, "b.xml", b); err != nil {
		t.Fatal(err)
	}
	// Two docs may also share one directory.
	if err := WriteDoc([]string{dir1}, "b2.xml", b); err != nil {
		t.Fatal(err)
	}
	if err := WriteDoc([]string{dir1}, "a.xml", a); err == nil {
		t.Fatal("duplicate uri in one directory must be rejected")
	}
	st, err := Open([]string{dir1, dir2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if docs := st.Docs(); len(docs) != 3 {
		t.Fatalf("want 3 docs, got %+v", docs)
	}
}

// corruptCopy writes the store fresh, applies mutate to the single part
// file, and returns the directory.
func corruptCopy(t *testing.T, mutate func(path string)) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "auction.xml", genFrag(t, 0.001)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".xrq") {
			mutate(filepath.Join(dir, e.Name()))
			return dir
		}
	}
	t.Fatal("no part file written")
	return ""
}

func patchByte(t *testing.T, path string, off int64, b byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{b}, off); err != nil {
		t.Fatal(err)
	}
}

// Every corruption class must surface as qerr.ErrCorrupt — never a
// panic, never an unclassified error a serving layer would misattribute.
func TestCorruptionTaxonomy(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(path string)
	}{
		{"truncated-empty", func(p string) {
			if err := os.Truncate(p, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-header", func(p string) {
			if err := os.Truncate(p, headerSize/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-sections", func(p string) {
			if err := os.Truncate(p, headerSize+16); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-magic", func(p string) { patchByte(t, p, 0, 'Z') }},
		{"version-skew", func(p string) { patchByte(t, p, 8, 99) }},
		{"checksum-mismatch", func(p string) {
			st, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte in the value heap (the last section).
			f, err := os.OpenFile(p, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var b [1]byte
			off := st.Size() - 8
			if _, err := f.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, off); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := corruptCopy(t, tc.mutate)
			st, err := Open([]string{dir}, Options{})
			if err == nil {
				st.Close()
				t.Fatal("corrupt store opened cleanly")
			}
			if !errors.Is(err, qerr.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

func TestNotAStoreDirectory(t *testing.T) {
	if _, err := Open([]string{t.TempDir()}, Options{}); !errors.Is(err, qerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for missing manifest, got %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open([]string{dir}, Options{}); !errors.Is(err, qerr.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for unreadable manifest, got %v", err)
	}
}

// The ledger mirror: sampled mmap residency is charged to the account
// while pages are warm and drains fully on Close.
func TestLedgerMirror(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "auction.xml", genFrag(t, 0.002)); err != nil {
		t.Fatal(err)
	}
	led := xdm.NewLedger(1 << 30)
	st, err := Open([]string{dir}, Options{Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	// Touch the corpus (fault pages in), then sample: the warm pages
	// must show up as ledger usage. Reading the value bytes is what
	// faults the heap pages — len() alone only reads string headers.
	f := st.Docs()[0].Frag
	total := 0
	for i := 0; i < f.Len(); i++ {
		v := f.Value[i]
		for j := 0; j < len(v); j++ {
			total += int(v[j])
		}
	}
	if total == 0 {
		t.Fatal("corpus has no text?")
	}
	st.Sample()
	if led.Used() == 0 {
		t.Fatal("warm store charged nothing to the ledger")
	}
	st.Close()
	if got := led.Used(); got != 0 {
		t.Fatalf("ledger holds %d bytes after Close", got)
	}
}

// Under a ledger too small for the corpus, opening and sampling must
// still succeed — pressure evicts pages, it never fails the store.
func TestLedgerPressureNeverFails(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDoc([]string{dir}, "auction.xml", genFrag(t, 0.002)); err != nil {
		t.Fatal(err)
	}
	led := xdm.NewLedger(4096) // far below the spine alone
	st, err := Open([]string{dir}, Options{Ledger: led})
	if err != nil {
		t.Fatalf("Open under pressure: %v", err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if _, err := os.ReadFile(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatal(err)
		}
		st.Sample()
	}
	if used := led.Used(); used > 4096 {
		t.Fatalf("ledger oversubscribed: %d > 4096", used)
	}
}

func TestStatsShape(t *testing.T) {
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1")}
	if err := WriteDoc(dirs, "auction.xml", genFrag(t, 0.001)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dirs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.Stats()
	if len(s.Docs) != 1 || len(s.Parts) != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MappedBytes <= 0 || s.SpineBytes <= 0 {
		t.Fatalf("stats byte totals not positive: %+v", s)
	}
	for _, p := range s.Parts {
		if p.Nodes <= 0 || p.MappedBytes <= 0 || p.Of != 2 {
			t.Fatalf("part: %+v", p)
		}
	}
}

// TestMountRemapsPartDictionaries: a two-part store whose part
// dictionaries list the same names in different orders — each part's
// first-use order, the layout earlier writers produced — mounts with
// every node's name right.
func TestMountRemapsPartDictionaries(t *testing.T) {
	// Rows 0-3 (doc, r, a, b) and 4-8 (text, r, b, text, a) use the same
	// four names, first in the order "", r, a, b, then "", r, b, a.
	frag := xmltree.MustParseString(`<r><a/><b>t</b><r><b/>u<a/></r></r>`)
	base := t.TempDir()
	dirs := []string{filepath.Join(base, "a"), filepath.Join(base, "b")}
	if err := WriteDoc(dirs, "d.xml", frag); err != nil {
		t.Fatal(err)
	}
	n := frag.Len()
	var dicts [][]string
	for k, dir := range dirs {
		lo, hi := k*n/2, (k+1)*n/2
		part := firstUseNames(frag, lo, hi)
		dicts = append(dicts, part.Names)
		if err := writePart(filepath.Join(dir, partFileName("d.xml", k)), part, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	sorted := func(d []string) []string { d = slices.Clone(d); slices.Sort(d); return d }
	if slices.Equal(dicts[0], dicts[1]) || !slices.Equal(sorted(dicts[0]), sorted(dicts[1])) {
		t.Fatalf("part dictionaries %q and %q: want the same names in two orders", dicts[0], dicts[1])
	}
	st, err := Open(dirs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fragsEqual(t, frag, st.Docs()[0].Frag)
}

// firstUseNames returns frag with the names of rows [lo, hi) re-indexed
// into a dictionary of just those rows' names, in first-use order.
func firstUseNames(frag *xmltree.Fragment, lo, hi int) *xmltree.Fragment {
	out := &xmltree.Fragment{Kind: frag.Kind, Name: make([]uint32, frag.Len()), Value: frag.Value,
		Size: frag.Size, Level: frag.Level, Parent: frag.Parent}
	ids := map[string]uint32{}
	for v := lo; v < hi; v++ {
		name := frag.NodeName(int32(v))
		id, ok := ids[name]
		if !ok {
			id = uint32(len(out.Names))
			ids[name] = id
			out.Names = append(out.Names, name)
		}
		out.Name[v] = id
	}
	return out
}
