// Store opening and runtime: mmap the part files of one or more store
// directories, reassemble each document's columns into an
// xmltree.Fragment whose string payloads alias the mappings (zero-copy,
// demand-paged), and mirror sampled page residency into an xdm.Ledger
// account so a multi-gigabyte corpus competes for the same byte budget
// as query intermediates — under pressure the sampler evicts store
// pages instead of failing queries.
//
// Fault tolerance: a part replicated by WriteDocOpts mounts the first
// healthy copy and keeps the rest as standby sources. A fault observed
// mid-query (an armed internal/fault plan's eio or badcrc, a
// lazily-detected CRC mismatch, a test's KillReplica) marks the part
// suspect; FailoverSuspects then swaps the mapping to the next replica
// and reassembles the affected documents.
// The replaced mapping is never unmapped while the store is open — it is
// condemned instead — so in-flight results that alias it stay valid.
//
// Part opens, WriteDoc's torn-write window and each store-backed
// execution's first probe (QueryFault) are sites of the process's fault
// plane (internal/fault); with no plan armed each costs one atomic
// pointer load.
package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Options configures Open.
type Options struct {
	// Ledger, when set, receives the store's sampled mmap residency as a
	// long-lived account (the fixed in-heap spine, Stats.SpineBytes, is
	// reported but not charged — see Sample). Reservations that the
	// ledger cannot cover trigger page eviction, never an error — paging
	// pressure must degrade locality, not availability.
	Ledger *xdm.Ledger
	// OnHeal, when set, is called after a scrub pass failed suspect
	// parts over to healthy replicas and reassembled their documents —
	// the mounting engine re-registers the fresh fragments. Invoked
	// without store locks held, from the scrubber goroutine or a
	// ScrubNow caller.
	OnHeal func([]DocEntry)
}

// source is one on-disk location (replica) of a part.
type source struct {
	dir string
	mp  manifestPart
	bad bool // open failed or scrub proved the bytes wrong (guarded by Store.mu)
}

func (s *source) path() string { return filepath.Join(s.dir, s.mp.File) }

// mapping is one mapped part file.
type mapping struct {
	f      *os.File
	data   []byte
	mapped bool // data is an mmap (not the read-whole-file fallback)
	hdr    header
}

// part is one logical part of a document: the active mapping plus the
// standby replica sources failover can switch to.
type part struct {
	uri   string
	index int
	of    int

	srcs   []*source // replicas in replica order; immutable after Open
	active int       // index into srcs of the serving copy (guarded by Store.mu)

	path   string
	f      *os.File
	data   []byte
	mapped bool
	hdr    header

	suspect   atomic.Bool // a fault was observed on the active copy
	exhausted bool        // every replica failed; terminal (guarded by Store.mu)
	faultMsg  string      // diagnostic of the observed fault (guarded by Store.mu)

	lastResident int64 // bytes resident at the previous Sample
}

// standbyLocked reports whether a not-yet-rejected replica other than
// the active one remains. Caller holds Store.mu.
func (p *part) standbyLocked() bool {
	for off := 1; off < len(p.srcs); off++ {
		if !p.srcs[(p.active+off)%len(p.srcs)].bad {
			return true
		}
	}
	return false
}

// DocEntry is one document reassembled from its parts.
type DocEntry struct {
	URI   string
	Frag  *xmltree.Fragment
	Parts int
}

// Store is a set of documents served from mmap'd part files. The
// fragments returned by Docs alias the mappings; they are valid until
// Close.
type Store struct {
	mu    sync.Mutex
	parts []*part // immutable slice after Open (part fields are guarded by mu)
	docs  []DocEntry
	acct  *xdm.Account
	opts  Options

	// condemned holds mappings replaced by failover: in-flight results
	// may still alias them, so they stay mapped (pages dropped, file
	// open) until Close.
	condemned []mapping

	suspects atomic.Int64 // parts currently suspect (Health fast path)

	failovers   int64 // replica failovers performed by this store
	quarantined int64 // part files quarantined and not yet restored
	scrubStats  ScrubStats

	scrubStop chan struct{}
	scrubDone chan struct{}

	mappedBytes   int64 // includes condemned mappings until Close
	residentBytes int64
	spineBytes    int64
	closed        bool
}

// Open mounts the stores in dirs as one corpus. A document sharded
// across several directories is reassembled as long as the given dirs
// jointly cover all of its parts at least once; a part present in
// several directories (WriteDocOpts with Replicas > 1) mounts its first
// healthy replica and keeps the rest as failover standbys. Structural
// failures (missing or partial part sets, bad magic, version skew,
// checksum mismatches, truncation, invalid tree encodings) are
// classified under qerr.ErrCorrupt; with replicas, Open only fails when
// every copy of a part is bad.
func Open(dirs []string, opts Options) (st *Store, err error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("store: no directories to open")
	}
	type partRef struct {
		dir string
		mp  manifestPart
	}
	byURI := make(map[string][]partRef)
	var uris []string // first-appearance order
	for _, dir := range dirs {
		m, err := readManifest(dir)
		if err != nil {
			return nil, err
		}
		for _, d := range m.Docs {
			if _, seen := byURI[d.URI]; !seen {
				uris = append(uris, d.URI)
			}
			for _, p := range d.Parts {
				byURI[d.URI] = append(byURI[d.URI], partRef{dir: dir, mp: p})
			}
		}
	}

	st = &Store{opts: opts}
	defer func() {
		if err != nil {
			st.Close()
			st = nil
		}
	}()

	for _, uri := range uris {
		refs := byURI[uri]
		of := refs[0].mp.Of
		if of < 1 {
			return nil, corruptf("%s: part count %d", uri, of)
		}
		slots := make([][]partRef, of)
		for _, r := range refs {
			if r.mp.Of != of {
				return nil, corruptf("%s: directories disagree on part count (%d vs %d)", uri, r.mp.Of, of)
			}
			if r.mp.Index < 0 || r.mp.Index >= of {
				return nil, corruptf("%s: part index %d out of range [0,%d)", uri, r.mp.Index, of)
			}
			slots[r.mp.Index] = append(slots[r.mp.Index], r)
		}
		for i, slot := range slots {
			if len(slot) == 0 {
				return nil, corruptf("%s: part %d/%d missing from the mounted directories", uri, i, of)
			}
			sort.Slice(slot, func(a, b int) bool {
				if slot[a].mp.Replica != slot[b].mp.Replica {
					return slot[a].mp.Replica < slot[b].mp.Replica
				}
				return slot[a].dir < slot[b].dir
			})
			for j := 1; j < len(slot); j++ {
				if slot[j].mp.Replica == slot[j-1].mp.Replica {
					return nil, corruptf("%s: part %d replica %d mounted twice", uri, i, slot[j].mp.Replica)
				}
			}
		}

		docParts := make([]*part, 0, of)
		rows := uint64(0)
		for i, slot := range slots {
			p := &part{uri: uri, index: i, of: of}
			for _, r := range slot {
				p.srcs = append(p.srcs, &source{dir: r.dir, mp: r.mp})
			}
			var lastErr error
			opened := false
			for si, src := range p.srcs {
				m, merr := openMapping(src.path(), src.mp)
				if merr != nil {
					src.bad = true
					lastErr = merr
					continue
				}
				p.active = si
				p.path = src.path()
				p.f, p.data, p.mapped, p.hdr = m.f, m.data, m.mapped, m.hdr
				if si > 0 {
					// A replica beyond the first served: mount-time failover.
					st.failovers++
					obs.StoreFailoverTotal.Inc()
				}
				opened = true
				break
			}
			if !opened {
				return nil, lastErr
			}
			st.parts = append(st.parts, p)
			st.mappedBytes += int64(len(p.data))
			if p.hdr.rowLo != rows {
				return nil, corruptf("%s: part %d starts at row %d, expected %d", p.path, p.index, p.hdr.rowLo, rows)
			}
			rows += p.hdr.nodes
			docParts = append(docParts, p)
		}
		frag, ferr := assembleDoc(uri, docParts)
		if ferr != nil {
			return nil, ferr
		}
		st.docs = append(st.docs, DocEntry{URI: uri, Frag: frag, Parts: of})
		// Nominal in-heap spine: the Name/Value string headers (16 B
		// each) every mount materializes, plus the copied int columns
		// (13 B/node) when the doc is sharded and its columns cannot
		// alias a single mapping.
		per := int64(32)
		if of > 1 {
			per += 13
		}
		st.spineBytes += per * int64(frag.Len())
	}

	obs.StorePartsOpen.Add(int64(len(st.parts)))
	obs.StoreMappedBytes.Add(st.mappedBytes)
	// Verification touched every page; start cold so residency reflects
	// query access, not mount-time checksumming.
	for _, p := range st.parts {
		dropPages(p.f, p.data, p.mapped)
	}
	if opts.Ledger != nil {
		st.acct = opts.Ledger.NewAccount(0)
	}
	st.Sample()
	return st, nil
}

// openMapping maps one part file and validates header and manifest
// agreement and the section checksums.
func openMapping(path string, mp manifestPart) (*mapping, error) {
	if p := fault.Armed(); p != nil {
		// Injected open faults classify exactly as the real ones: a short
		// read (which wins a collision) as ErrCorrupt, a failed map as I/O.
		i := p.Next(fault.Opens)
		if p.Fire(fault.ShortRead, i) {
			return nil, corruptf("%s: truncated by injected short read (fault plan)", path)
		}
		if p.Fire(fault.Mmap, i) {
			return nil, fmt.Errorf("store: %s: injected mmap failure (fault plan)", path)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, corruptf("%s: part file missing", path)
		}
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	data, mapped, err := mapFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	m := &mapping{f: f, data: data, mapped: mapped}
	h, err := parseHeader(path, data)
	if err != nil {
		m.close()
		return nil, err
	}
	if int64(h.nodes) != mp.Nodes {
		m.close()
		return nil, corruptf("%s: holds %d nodes, manifest says %d", path, h.nodes, mp.Nodes)
	}
	if err := verifySections(path, data, h); err != nil {
		m.close()
		return nil, err
	}
	m.hdr = h
	return m, nil
}

func (m *mapping) close() {
	unmapFile(m.data, m.mapped)
	m.data = nil
	if m.f != nil {
		m.f.Close()
		m.f = nil
	}
}

func (p *part) close() {
	unmapFile(p.data, p.mapped)
	p.data = nil
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// sec returns the bytes of section i of the part.
func (p *part) sec(i int) []byte {
	s := p.hdr.secs[i]
	return p.data[s.off : s.off+s.len]
}

// numParts returns the part count (the parts slice is immutable after
// Open, so no lock is needed).
func (s *Store) numParts() int { return len(s.parts) }

// assembleDoc rebuilds one document's Fragment from its parts (already
// in index order, row-contiguous). For a single-part document the int
// columns and the name ids alias the mapping directly; a sharded
// document concatenates them into heap slices. Value strings always alias the part mappings —
// the text payload, which dominates corpus bytes, stays demand-paged
// either way.
func assembleDoc(uri string, parts []*part) (*xmltree.Fragment, error) {
	total := uint64(0)
	for _, p := range parts {
		total += p.hdr.nodes
	}
	if total == 0 {
		return nil, corruptf("%s: document has no nodes", uri)
	}
	if total > math.MaxInt32 {
		return nil, corruptf("%s: %d nodes exceed the fragment encoding's int32 preorder", uri, total)
	}
	n := int(total)
	frag := &xmltree.Fragment{Name_: uri}

	if len(parts) == 1 {
		p := parts[0]
		frag.Kind = unsafe.Slice((*xmltree.NodeKind)(unsafe.Pointer(&p.sec(sKind)[0])), n)
		frag.Size = unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sSize)[0])), n)
		frag.Level = unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sLevel)[0])), n)
		frag.Parent = unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sParent)[0])), n)
	} else {
		frag.Kind = make([]xmltree.NodeKind, n)
		frag.Size = make([]int32, n)
		frag.Level = make([]int32, n)
		frag.Parent = make([]int32, n)
		for _, p := range parts {
			lo, pn := int(p.hdr.rowLo), int(p.hdr.nodes)
			if pn == 0 {
				continue
			}
			copy(frag.Kind[lo:], unsafe.Slice((*xmltree.NodeKind)(unsafe.Pointer(&p.sec(sKind)[0])), pn))
			copy(frag.Size[lo:], unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sSize)[0])), pn))
			copy(frag.Level[lo:], unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sLevel)[0])), pn))
			copy(frag.Parent[lo:], unsafe.Slice((*int32)(unsafe.Pointer(&p.sec(sParent)[0])), pn))
		}
	}

	frag.Value = make([]string, n)
	if len(parts) > 1 {
		frag.Name = make([]uint32, n)
	}
	// A sharded document's parts may list their names in different
	// orders (earlier writers used each part's first-use order), so
	// their ids are remapped into one merged dictionary.
	var names []string
	ids := map[string]uint32{}
	for _, p := range parts {
		if p.hdr.nodes == 0 {
			continue
		}
		dict, err := decodeDict(p)
		if err != nil {
			return nil, err
		}
		lo, pn := int(p.hdr.rowLo), int(p.hdr.nodes)
		nameID := unsafe.Slice((*uint32)(unsafe.Pointer(&p.sec(sNameID)[0])), pn)
		for i, id := range nameID {
			if id >= uint32(len(dict)) {
				return nil, corruptf("%s: node %d names dictionary entry %d of %d", p.path, lo+i, id, len(dict))
			}
		}
		if len(parts) == 1 {
			frag.Name, names = nameID, dict
		} else {
			remap := make([]uint32, len(dict))
			for j, s := range dict {
				id, ok := ids[s]
				if !ok {
					id = uint32(len(names))
					names = append(names, s)
					ids[s] = id
				}
				remap[j] = id
			}
			for i, id := range nameID {
				frag.Name[lo+i] = remap[id]
			}
		}
		valOff := unsafe.Slice((*uint64)(unsafe.Pointer(&p.sec(sValOff)[0])), pn+1)
		heap := p.sec(sValHeap)
		if valOff[0] != 0 || valOff[pn] != uint64(len(heap)) {
			return nil, corruptf("%s: value offsets [%d..%d] do not span the %d-byte heap",
				p.path, valOff[0], valOff[pn], len(heap))
		}
		for i := 0; i < pn; i++ {
			o, e := valOff[i], valOff[i+1]
			if e < o || e > uint64(len(heap)) {
				return nil, corruptf("%s: node %d value span [%d,%d) invalid", p.path, lo+i, o, e)
			}
			if e > o {
				frag.Value[lo+i] = unsafe.String(&heap[o], int(e-o))
			}
		}
	}

	frag.Names = names

	if err := xmltree.Validate(frag); err != nil {
		return nil, corruptf("%s: invalid tree encoding: %v", uri, err)
	}
	return frag, nil
}

// decodeDict materializes a part's name dictionary (names are few and
// hot; copying them off the mapping keeps Name lookups fault-free).
func decodeDict(p *part) ([]string, error) {
	b := p.sec(sDict)
	dict := make([]string, 0, p.hdr.dictN)
	for i := uint64(0); i < p.hdr.dictN; i++ {
		if len(b) < 4 {
			return nil, corruptf("%s: dictionary truncated at entry %d", p.path, i)
		}
		l := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		b = b[4:]
		if l < 0 || l > len(b) {
			return nil, corruptf("%s: dictionary entry %d length %d exceeds section", p.path, i, l)
		}
		dict = append(dict, string(b[:l]))
		b = b[l:]
	}
	return dict, nil
}

// Docs returns the mounted documents in mount order. After a failover
// the entries carry freshly reassembled fragments.
func (s *Store) Docs() []DocEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DocEntry(nil), s.docs...)
}

// Health is the query-time probe: it reports the first suspect part as
// an error — retryable (the engine fails over and re-executes) while an
// untried replica remains, terminal once all copies are bad. The healthy
// fast path is one atomic load.
func (s *Store) Health() error {
	if s.suspects.Load() > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, p := range s.parts {
			if p.suspect.Load() {
				return s.faultErrLocked(p)
			}
		}
	}
	return nil
}

// markSuspectLocked records an observed fault on p's active replica.
// Caller holds s.mu.
func (s *Store) markSuspectLocked(p *part, msg string) {
	if p.suspect.CompareAndSwap(false, true) {
		p.faultMsg = msg
		s.suspects.Add(1)
		obs.StoreSuspectParts.Add(1)
	}
}

// faultErrLocked classifies p's recorded fault: retryable while a
// standby replica remains, terminal otherwise. Caller holds s.mu.
func (s *Store) faultErrLocked(p *part) error {
	msg := p.faultMsg
	if msg == "" {
		msg = fmt.Sprintf("%s: part fault", p.path)
	}
	if !p.exhausted && p.standbyLocked() {
		return retryableCorruptf("%s (replica %d of %d suspect; standby available)",
			msg, p.srcs[p.active].mp.Replica, len(p.srcs))
	}
	if len(p.srcs) == 1 {
		return qerr.Newf(qerr.ErrCorrupt, "execute", "store: %s (no replica to fail over to)", msg)
	}
	return qerr.Newf(qerr.ErrCorrupt, "execute", "store: %s (all %d replicas bad)", msg, len(p.srcs))
}

// QueryFault gives plan p at most one fault for one execution over the
// mounted stores: when the execution's number hits the eio (which wins
// a collision) or badcrc residue, a part chosen by rotation across the
// stores is marked suspect — exactly as a real fault would — and the
// corresponding error returned (retryable iff a standby replica
// remains). The mounting engine calls it from each execution's first
// store probe; executions with no part mounted are not numbered.
func QueryFault(p *fault.Plan, stores []*Store) error {
	total := 0
	for _, st := range stores {
		total += st.numParts()
	}
	if total == 0 {
		return nil
	}
	i := p.Next(fault.Queries)
	kind := "injected I/O error"
	if !p.Fire(fault.EIO, i) {
		if !p.Fire(fault.BadCRC, i) {
			return nil
		}
		kind = "injected checksum mismatch"
	}
	k := int(i % int64(total))
	for _, st := range stores {
		n := st.numParts()
		if k < n {
			return st.injectPartFault(k, kind)
		}
		k -= n
	}
	return nil
}

// injectPartFault marks part k suspect on behalf of an armed fault plan
// and returns the error the real fault would have produced.
func (s *Store) injectPartFault(k int, kind string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || k < 0 || k >= len(s.parts) {
		return nil
	}
	p := s.parts[k]
	if !p.suspect.Load() {
		s.markSuspectLocked(p, fmt.Sprintf("%s: %s (%s section, replica %d of %d)",
			p.path, kind, sectionName(sValHeap), p.srcs[p.active].mp.Replica, len(p.srcs)))
	}
	return s.faultErrLocked(p)
}

// KillReplica marks part k's active replica suspect, exactly as a
// detected fault would — the hook failover benches and tests use.
func (s *Store) KillReplica(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if k < 0 || k >= len(s.parts) {
		return fmt.Errorf("store: no part %d", k)
	}
	p := s.parts[k]
	s.markSuspectLocked(p, fmt.Sprintf("%s: replica killed (test hook)", p.path))
	return nil
}

// FailoverSuspects swaps every suspect part to its next healthy replica
// and reassembles the affected documents, returning the fresh entries
// for re-registration. The replaced mappings are condemned — kept
// mapped until Close — so results still aliasing them stay readable;
// the caller is expected to hold its execution drain barrier so the
// re-registered fragments are what retries see. A suspect part with no
// healthy replica left becomes exhausted (terminal); that is not an
// error here — the next probe reports it.
func (s *Store) FailoverSuspects() ([]DocEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failoverSuspectsLocked()
}

func (s *Store) failoverSuspectsLocked() ([]DocEntry, error) {
	if s.closed || s.suspects.Load() == 0 {
		return nil, nil
	}
	healedURIs := make(map[string]bool)
	for _, p := range s.parts {
		if !p.suspect.Load() || p.exhausted {
			continue
		}
		if s.failoverPartLocked(p) {
			healedURIs[p.uri] = true
		}
	}
	return s.reassembleLocked(healedURIs)
}

// failoverPartLocked switches p to its next healthy replica. The old
// source stays in the rotation (not marked bad): if its bytes are truly
// corrupt a later open re-validates and rejects them, while a transient
// fault (or an injected one) leaves a perfectly good standby. Returns
// whether the part was healed. Caller holds s.mu.
func (s *Store) failoverPartLocked(p *part) bool {
	n := len(p.srcs)
	for off := 1; off < n; off++ {
		idx := (p.active + off) % n
		cand := p.srcs[idx]
		if cand.bad {
			continue
		}
		m, err := openMapping(cand.path(), cand.mp)
		if err != nil {
			cand.bad = true
			continue
		}
		// Condemn the old mapping: in-flight results may alias it. Drop
		// its pages now — the mapping stays valid, the RAM is released.
		dropPages(p.f, p.data, p.mapped)
		s.condemned = append(s.condemned, mapping{f: p.f, data: p.data, mapped: p.mapped})
		s.mappedBytes += int64(len(m.data))
		obs.StoreMappedBytes.Add(int64(len(m.data)))
		obs.StorePartsOpen.Add(1)
		p.path = cand.path()
		p.f, p.data, p.mapped, p.hdr = m.f, m.data, m.mapped, m.hdr
		p.active = idx
		p.faultMsg = ""
		p.lastResident = 0
		p.suspect.Store(false)
		s.suspects.Add(-1)
		obs.StoreSuspectParts.Add(-1)
		s.failovers++
		obs.StoreFailoverTotal.Inc()
		return true
	}
	p.exhausted = true
	return false
}

// reassembleLocked rebuilds the fragments of the given URIs from their
// (post-failover) parts and updates s.docs. Caller holds s.mu.
func (s *Store) reassembleLocked(uris map[string]bool) ([]DocEntry, error) {
	if len(uris) == 0 {
		return nil, nil
	}
	var healed []DocEntry
	for i := range s.docs {
		uri := s.docs[i].URI
		if !uris[uri] {
			continue
		}
		var docParts []*part
		for _, p := range s.parts {
			if p.uri == uri {
				docParts = append(docParts, p)
			}
		}
		frag, err := assembleDoc(uri, docParts)
		if err != nil {
			// The replica passed its CRCs but assembles invalid: treat
			// its part as bad too and leave the old fragment serving.
			return healed, err
		}
		s.docs[i].Frag = frag
		healed = append(healed, s.docs[i])
	}
	return healed, nil
}

// PartInfo describes one mapped part file for observability.
type PartInfo struct {
	URI           string `json:"uri"`
	Path          string `json:"path"`
	Index         int    `json:"index"`
	Of            int    `json:"of"`
	Nodes         int64  `json:"nodes"`
	MappedBytes   int64  `json:"mapped_bytes"`
	ResidentBytes int64  `json:"resident_bytes"`
	// Replica is the replica number of the serving copy; Replicas the
	// mounted copies of this part (1 = unreplicated).
	Replica  int `json:"replica"`
	Replicas int `json:"replicas"`
	// State is "healthy", "suspect" (fault observed, failover pending)
	// or "exhausted" (every replica bad).
	State string `json:"state"`
}

// StatsSnapshot is a point-in-time view of the store's footprint and
// health.
type StatsSnapshot struct {
	Docs          []string   `json:"docs"`
	Parts         []PartInfo `json:"parts"`
	MappedBytes   int64      `json:"mapped_bytes"`
	ResidentBytes int64      `json:"resident_bytes"`
	SpineBytes    int64      `json:"spine_bytes"`
	// Health summarizes the store: "ok", "degraded" (served by failover
	// or carrying quarantined files, all parts healthy), "suspect"
	// (fault observed, failover pending) or "failed" (a part has no
	// healthy replica left).
	Health string `json:"health"`
	// SuspectParts counts parts awaiting failover; Condemned the
	// replaced mappings kept alive for in-flight readers; Failovers the
	// replica switches (mount-time and mid-query) this store performed.
	SuspectParts int   `json:"suspect_parts"`
	Condemned    int   `json:"condemned"`
	Failovers    int64 `json:"failovers"`
	// Scrub reports the background scrubber's counters.
	Scrub ScrubStats `json:"scrub"`
}

// Stats reports the store's documents, parts, footprint and health as
// of the last Sample.
func (s *Store) Stats() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StatsSnapshot{
		MappedBytes:   s.mappedBytes,
		ResidentBytes: s.residentBytes,
		SpineBytes:    s.spineBytes,
		SuspectParts:  int(s.suspects.Load()),
		Condemned:     len(s.condemned),
		Failovers:     s.failovers,
		Scrub:         s.scrubStats,
	}
	for _, d := range s.docs {
		out.Docs = append(out.Docs, d.URI)
	}
	health := "ok"
	if s.failovers > 0 || s.quarantined > 0 {
		health = "degraded"
	}
	for _, p := range s.parts {
		state := "healthy"
		if p.suspect.Load() {
			state = "suspect"
			if health != "failed" {
				health = "suspect"
			}
		}
		if p.exhausted {
			state = "exhausted"
			health = "failed"
		}
		out.Parts = append(out.Parts, PartInfo{
			URI: p.uri, Path: p.path, Index: p.index, Of: p.of,
			Nodes: int64(p.hdr.nodes), MappedBytes: int64(len(p.data)),
			ResidentBytes: p.lastResident,
			Replica:       p.srcs[p.active].mp.Replica, Replicas: len(p.srcs),
			State: state,
		})
	}
	out.Health = health
	return out
}

// Sample measures page residency across the store's mappings, updates
// the store metrics, and mirrors the footprint (resident + spine) into
// the ledger account. When the ledger cannot cover the footprint the
// sampler evicts store pages (madvise/fadvise DONTNEED) and re-measures:
// queries then fault their working set back in page by page, but a
// store under memory pressure never fails — it just runs colder.
// Returns the mapped and resident byte totals.
func (s *Store) Sample() (mapped, resident int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0
	}
	resident = s.sampleLocked()
	if s.acct != nil {
		// Only the evictable mmap residency is charged — the in-heap
		// spine (Stats.SpineBytes) is a fixed floor the sampler cannot
		// shed, so charging it would let a large corpus starve every
		// query of the budget it shares with them. The floor is reported
		// instead of charged; size ledgers above it.
		delta := resident - s.acct.Used()
		if delta > 0 {
			if over := s.acct.Reserve(delta); over != nil {
				// Ledger pressure: drop store pages and charge only what
				// is still resident after eviction. Reserve-best-effort —
				// deliberately no error path.
				obs.StoreEvictionsTotal.Inc()
				for _, p := range s.parts {
					dropPages(p.f, p.data, p.mapped)
				}
				resident = s.sampleLocked()
				if delta = resident - s.acct.Used(); delta > 0 {
					s.acct.Reserve(delta) // may fail again; resident stays undercharged
				} else if delta < 0 {
					s.acct.Release(-delta)
				}
			}
		} else if delta < 0 {
			s.acct.Release(-delta)
		}
	}
	return s.mappedBytes, resident
}

// sampleLocked refreshes per-part residency, counts fault deltas, and
// updates the gauges. Caller holds s.mu. Condemned mappings are not
// sampled: their pages were dropped at condemnation and only fault back
// if a still-live result reads them.
func (s *Store) sampleLocked() int64 {
	total := int64(0)
	ps := int64(pageSize())
	for _, p := range s.parts {
		res := residentBytes(p.data, p.mapped)
		if res > p.lastResident {
			obs.StorePageFaultsTotal.Add((res - p.lastResident + ps - 1) / ps)
		}
		p.lastResident = res
		total += res
	}
	obs.StoreResidentBytes.Add(total - s.residentBytes)
	s.residentBytes = total
	return total
}

// Close stops the scrubber, unmaps every part (condemned mappings
// included) and releases the ledger account. The fragments returned by
// Docs alias the mappings and must not be read afterwards.
func (s *Store) Close() {
	if s == nil {
		return
	}
	s.StopScrub()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	obs.StorePartsOpen.Add(-int64(len(s.parts) + len(s.condemned)))
	obs.StoreMappedBytes.Add(-s.mappedBytes)
	obs.StoreResidentBytes.Add(-s.residentBytes)
	obs.StoreSuspectParts.Add(-s.suspects.Load())
	for _, p := range s.parts {
		p.close()
	}
	for i := range s.condemned {
		s.condemned[i].close()
	}
	s.condemned = nil
	if s.acct != nil {
		s.acct.Close()
	}
}
