package exrquy

// Out-of-core document stores: mount persisted columnar stores
// (internal/store) into an Engine so fn:doc serves documents straight
// from mmap'd part files, demand-paged under a byte ledger (the
// dedicated WithStoreBudget ledger, or the governor's shared one),
// instead of parsing XML into the heap.

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/store"
)

// Storage fault-tolerance re-exports (the machinery lives in
// internal/store).
type (
	// StoreScrubConfig configures background scrubbing (WithStoreScrub):
	// Interval between passes, BytesPerSec read-rate pacing.
	StoreScrubConfig = store.ScrubConfig
	// StoreScrubStats are one store's cumulative scrub counters.
	StoreScrubStats = store.ScrubStats
)

// storeMount is one attached on-disk store, the doc URIs it contributed
// to the registry, and every fragment id it added to the engine's store
// (heal re-registrations included; guarded by Engine.mu), which
// DetachStore releases.
type storeMount struct {
	key  string
	dirs []string
	uris []string
	ids  []uint32
	st   *store.Store
}

// StoreMountInfo describes one attached store for observability.
type StoreMountInfo struct {
	Key   string              `json:"key"`
	Dirs  []string            `json:"dirs"`
	URIs  []string            `json:"uris"`
	Stats store.StatsSnapshot `json:"stats"`
}

// storeKey canonicalizes the mount key: the first directory's absolute
// path (best effort — a non-resolvable path keys as given).
func storeKey(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return dir
}

// AttachStore mounts the on-disk stores in dirs (a document sharded
// across several directories is reassembled when the dirs jointly cover
// its parts) and registers every document they hold, replacing any
// same-named registry entries; a replaced in-memory document's fragment
// is released as a reload releases it. The mount is keyed by the first
// directory; it returns the mounted document URIs.
//
// The store's sampled residency is charged to a byte ledger: the
// dedicated store ledger when the engine was built WithStoreBudget,
// else the governor's shared ledger when one is configured (corpus
// pages then compete with query intermediates). Under pressure the
// store evicts pages rather than failing queries.
func (e *Engine) AttachStore(dirs ...string) ([]string, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("exrquy: AttachStore needs at least one directory")
	}
	key := storeKey(dirs[0])
	e.mu.Lock()
	_, dup := e.mounts[key]
	e.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("exrquy: store %s already attached", key)
	}
	led := e.storeLedger
	if led == nil && e.opts.cfg.Governor != nil {
		led = e.opts.cfg.Governor.Ledger()
	}
	m := &storeMount{key: key, dirs: append([]string(nil), dirs...)}
	st, err := store.Open(dirs, store.Options{Ledger: led, OnHeal: func(entries []store.DocEntry) {
		e.registerHealed(m, entries)
	}})
	if err != nil {
		return nil, err
	}
	m.st = st
	e.mu.Lock()
	if _, dup := e.mounts[key]; dup {
		e.mu.Unlock()
		st.Close()
		return nil, fmt.Errorf("exrquy: store %s already attached", key)
	}
	e.mounts[key] = m
	var release []uint32
	for _, d := range st.Docs() {
		release = append(release, e.registerMountedLocked(m, d)...)
		m.uris = append(m.uris, d.URI)
	}
	e.mu.Unlock()
	e.releaseDrained(release)
	if e.opts.scrub.Interval > 0 {
		st.StartScrub(e.opts.scrub)
	}
	return append([]string(nil), m.uris...), nil
}

// DetachStore unmounts the store attached under dir (the first
// directory given to AttachStore). Its documents leave the registry
// immediately — queries started afterwards cannot see them; a name a
// later load re-pointed at an in-memory document keeps it — and the
// store's mappings are released only after every in-flight query has
// finished, so running queries are never pulled off their pages.
// Results that reference a detached store's documents must be
// serialized before detaching. The fragments the mount added to the
// engine's store are released at the same point, so attach/detach
// cycles do not grow the engine. Returns the URIs that were unmounted.
func (e *Engine) DetachStore(dir string) ([]string, error) {
	key := storeKey(dir)
	e.mu.Lock()
	m, ok := e.mounts[key]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("exrquy: no store attached at %s", key)
	}
	delete(e.mounts, key)
	for _, uri := range m.uris {
		if m.owns(e.docs[uri]) {
			delete(e.docs, uri)
		}
	}
	e.mu.Unlock()

	// Wait out queries that snapshotted the registry before the removal:
	// every execution holds mountsMu shared for its whole run, so taking
	// it exclusively once drains them all.
	e.mountsMu.Lock()
	e.mountsMu.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	// m.ids is complete: registerHealed adds nothing for an unmounted m.
	e.store.Release(m.ids...)
	m.st.Close()
	return append([]string(nil), m.uris...), nil
}

// Stores lists the attached stores in mount-key order.
func (e *Engine) Stores() []StoreMountInfo {
	mounts := e.mountsSnapshot()
	out := make([]StoreMountInfo, 0, len(mounts))
	for _, m := range mounts {
		out = append(out, StoreMountInfo{
			Key: m.key, Dirs: append([]string(nil), m.dirs...),
			URIs: append([]string(nil), m.uris...), Stats: m.st.Stats(),
		})
	}
	return out
}

// SampleStores refreshes page-residency accounting across all attached
// stores (see store.Store.Sample) and returns the aggregate mapped and
// resident bytes. Serving layers call it periodically; it is also how
// ledger pressure translates into store page eviction.
func (e *Engine) SampleStores() (mapped, resident int64) {
	for _, m := range e.mountsSnapshot() {
		mm, rr := m.st.Sample()
		mapped += mm
		resident += rr
	}
	return mapped, resident
}

// WriteStoreReplicated persists the named loaded document to dirs as an
// on-disk store: one directory writes a single-part store, N directories
// shard the document by equal preorder ranges (one part per directory).
// Every part is written to replicas distinct directories (replica r of
// part k lands in dirs[(k+r) mod len(dirs)], so two copies of one part
// never share a directory). A mount prefers the first healthy copy of
// each part and fails over to the next on corruption; requires replicas
// <= len(dirs), and replicas 1 writes each part once.
func (e *Engine) WriteStoreReplicated(name string, replicas int, dirs ...string) error {
	// A mounted document's columns are mmap'd: hold the shared mount lock
	// so a concurrent DetachStore cannot release and unmap them mid-write.
	e.mountsMu.RLock()
	defer e.mountsMu.RUnlock()
	e.mu.RLock()
	ids, ok := e.docs[name]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("exrquy: unknown document %q", name)
	}
	if len(ids) != 1 {
		return fmt.Errorf("exrquy: %q is a multi-part collection; write its parts individually", name)
	}
	return store.WriteDocOpts(dirs, name, e.store.Frag(ids[0]), store.WriteOptions{Replicas: replicas})
}

// mountsSnapshot copies the mount list under the registry lock, in
// deterministic (key) order.
func (e *Engine) mountsSnapshot() []*storeMount {
	e.mu.RLock()
	mounts := make([]*storeMount, 0, len(e.mounts))
	for _, m := range e.mounts {
		mounts = append(mounts, m)
	}
	e.mu.RUnlock()
	sort.Slice(mounts, func(i, j int) bool { return mounts[i].key < mounts[j].key })
	return mounts
}

// storeProbe is the per-execution storage health probe factory
// (core.Config.StoreProbe): invoked once per execution, it snapshots
// the attached stores and returns the closure every cooperative poll
// point of that execution calls. The closure's first call gives an
// armed fault plan its one chance to inject a fault into this
// execution; every call then checks each store's health (one atomic
// load per store when all is well). Executions with no stores mounted
// probe nothing.
func (e *Engine) storeProbe() func() error {
	mounts := e.mountsSnapshot()
	if len(mounts) == 0 {
		return nil
	}
	stores := make([]*store.Store, len(mounts))
	for i, m := range mounts {
		stores[i] = m.st
	}
	var fired atomic.Bool
	return func() error {
		if p := fault.Armed(); p != nil && !fired.Load() && fired.CompareAndSwap(false, true) {
			if err := store.QueryFault(p, stores); err != nil {
				return err
			}
		}
		for _, st := range stores {
			if err := st.Health(); err != nil {
				return err
			}
		}
		return nil
	}
}

// failoverStores swaps every suspect part of every attached store to a
// healthy standby replica and re-registers the reassembled documents.
// It runs under the exclusive mount lock — the same drain barrier
// DetachStore uses — so no in-flight execution is reading the registry
// while documents heal; the replaced mappings themselves are condemned
// (kept mapped until the store closes), so results already holding
// pages of the old copy stay readable. Returns whether any part healed,
// i.e. whether re-executing is worthwhile.
func (e *Engine) failoverStores() bool {
	e.mountsMu.Lock()
	defer e.mountsMu.Unlock()
	healed := false
	for _, m := range e.mountsSnapshot() {
		entries, err := m.st.FailoverSuspects()
		if err != nil || len(entries) == 0 {
			continue
		}
		healed = true
		e.registerHealed(m, entries)
	}
	return healed
}

// registerHealed re-registers documents of mount m whose parts were
// failed over or re-replicated (store.Options.OnHeal): the fresh
// fragments replace the registry entries, so the next execution's
// snapshot reads the healthy replicas. Safe concurrently with running
// queries — they hold their own point-in-time snapshot, and the pages
// that snapshot aliases stay mapped (condemned) until the store closes.
// A heal that lands after m was detached registers nothing, and neither
// does one for a name since re-pointed elsewhere (reloaded, removed).
func (e *Engine) registerHealed(m *storeMount, entries []store.DocEntry) {
	e.mu.Lock()
	if e.mounts[m.key] == m {
		for _, d := range entries {
			if m.owns(e.docs[d.URI]) {
				e.registerMountedLocked(m, d)
			}
		}
	}
	e.mu.Unlock()
}

// registerMountedLocked adds one of m's documents to the engine's store
// and registry and records its fragment id on m. It returns the replaced
// fragments to release (see swapLocked). Callers hold e.mu.
func (e *Engine) registerMountedLocked(m *storeMount, d store.DocEntry) []uint32 {
	id := e.store.Add(d.Frag)
	m.ids = append(m.ids, id)
	return e.swapLocked(d.URI, []uint32{id})
}

// owns reports whether a registry entry still points at one of the
// mount's fragments.
func (m *storeMount) owns(ids []uint32) bool {
	return len(ids) == 1 && slices.Contains(m.ids, ids[0])
}

// ScrubStores runs one synchronous scrub pass over every attached store
// — re-verifying every part file's section checksums (active mappings
// and standby replicas), quarantining corrupt files and restoring them
// from healthy copies — and returns each mount's cumulative scrub
// stats, keyed like Stores(). Independent of the WithStoreScrub
// background loop. bytesPerSec > 0 paces the verification reads.
func (e *Engine) ScrubStores(bytesPerSec int64) map[string]StoreScrubStats {
	out := make(map[string]StoreScrubStats)
	for _, m := range e.mountsSnapshot() {
		out[m.key] = m.st.ScrubNow(store.ScrubConfig{BytesPerSec: bytesPerSec})
	}
	return out
}
