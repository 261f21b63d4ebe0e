// On-disk format of the columnar document store.
//
// A document's pre/size/level encoding is persisted as one or more part
// files, each holding a contiguous preorder range of the node columns:
//
//	header   magic "XRQSTORE", format version, node count, global row
//	         offset (rowLo), dictionary size, section table
//	sections kind (1 B/node) · size/level/parent (int32 LE) ·
//	         name ids (uint32 LE into the dictionary) ·
//	         name dictionary ({u32 len, bytes} entries) ·
//	         value offsets (uint64 LE, n+1 entries) · value heap
//
// Every section is 8-byte aligned (so mmap'd int32/uint64 columns alias
// directly) and carries a CRC-32 (IEEE) verified at open. Fixed-width
// integers are little-endian; the zero-copy open path additionally
// assumes a little-endian host, like every target this repo builds for.
//
// A directory becomes a store through manifest.json, which lists the
// documents and their parts. Sharding a document across N directories
// just distributes its part files: part k of N holds preorder rows
// [rowLo, rowLo+nodes), and mounting any grouping of directories that
// covers all parts reassembles the identical document.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/fault"
	"repro/internal/qerr"
	"repro/internal/xmltree"
)

const (
	magic         = "XRQSTORE"
	formatVersion = 1
	numSections   = 8
)

// Section indices into the header's section table.
const (
	sKind = iota
	sSize
	sLevel
	sParent
	sNameID
	sDict
	sValOff
	sValHeap
)

// headerSize is the fixed byte length of the part-file header:
// magic(8) + version(4) + sections(4) + nodes(8) + rowLo(8) + dict(8)
// + table(numSections × 24).
const headerSize = 8 + 4 + 4 + 8 + 8 + 8 + numSections*24

// ManifestName is the per-directory store manifest file.
const ManifestName = "manifest.json"

type section struct {
	off uint64
	len uint64
	crc uint32
}

type header struct {
	nodes uint64
	rowLo uint64
	dictN uint64
	secs  [numSections]section
}

// corruptf classifies a structural store failure under qerr.ErrCorrupt
// (phase "mount"), so serving layers answer 500/"corrupt_store" instead
// of crashing or mis-blaming the request.
func corruptf(format string, args ...any) error {
	return qerr.Newf(qerr.ErrCorrupt, "mount", "store: "+format, args...)
}

// retryableCorruptf is corruptf for a fault with a healthy replica left:
// the same classification, but marked retryable so the engine's failover
// loop re-executes instead of failing the query.
func retryableCorruptf(format string, args ...any) error {
	e := qerr.Newf(qerr.ErrCorrupt, "execute", "store: "+format, args...)
	e.Retryable = true
	return e
}

// sectionName names a section index in diagnostics, so a corrupt-part
// message pins down what is broken, not just where.
var sectionNames = [numSections]string{
	"kind", "size", "level", "parent", "nameid", "dict", "valoff", "valheap",
}

func sectionName(i int) string {
	if i >= 0 && i < numSections {
		return sectionNames[i]
	}
	return fmt.Sprintf("#%d", i)
}

// manifest is the JSON document listing a directory's store contents.
type manifest struct {
	Format int           `json:"format"`
	Docs   []manifestDoc `json:"docs"`
}

type manifestDoc struct {
	URI   string         `json:"uri"`
	Parts []manifestPart `json:"parts"`
	// Quarantined lists part files of this document that the scrubber
	// renamed to *.quarantine in this directory (forensic record; the
	// live part entry is removed so mounts skip the bad copy).
	Quarantined []string `json:"quarantined,omitempty"`
}

type manifestPart struct {
	File  string `json:"file"`
	Index int    `json:"index"`
	Of    int    `json:"of"`
	Nodes int64  `json:"nodes"`
	// Replica numbers this copy of part Index (0-based) and Replicas the
	// copies written; pre-replication manifests omit both, reading as
	// replica 0 of 1.
	Replica  int `json:"replica,omitempty"`
	Replicas int `json:"replicas,omitempty"`
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, corruptf("%s: not a store directory (no %s)", dir, ManifestName)
		}
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, corruptf("%s: unreadable manifest: %v", dir, err)
	}
	if m.Format != formatVersion {
		return nil, corruptf("%s: manifest format %d, this build reads %d", dir, m.Format, formatVersion)
	}
	return &m, nil
}

func writeManifest(dir string, m *manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	// The rename below is only atomic on disk if the new content got
	// there first; without this fsync a crash can publish a manifest of
	// garbage (or of the old length) under the final name.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir makes a directory's entries (new files, renames) durable. A
// filesystem that cannot sync directories reports EINVAL; treated as
// done — there is nothing more portable to ask of it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// partFileName derives a filesystem-safe part file name from a doc URI.
func partFileName(uri string, index int) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, uri)
	return fmt.Sprintf("%s.part%03d.xrq", safe, index)
}

// WriteOptions configures WriteDocOpts.
type WriteOptions struct {
	// Shards is the number of parts the document splits into by equal
	// preorder ranges; <= 0 means one part per directory (the historical
	// WriteDoc behaviour).
	Shards int
	// Replicas is the number of directories each part is written to;
	// <= 0 means 1 (no replication). Replica r of shard k lands in
	// dirs[(k+r) mod len(dirs)], so replicas of one part never share a
	// directory — a lost or corrupted directory costs at most one copy
	// of each part. Requires Replicas <= len(dirs).
	Replicas int
}

// WriteDoc persists frag as the parts of uri, one part per directory:
// len(dirs) == 1 writes a single-part (unsharded) store, N directories
// shard the document by equal preorder ranges. Directories are created
// as needed; each directory's manifest is updated (it is an error if it
// already lists uri). For replication use WriteDocOpts.
func WriteDoc(dirs []string, uri string, frag *xmltree.Fragment) error {
	return WriteDocOpts(dirs, uri, frag, WriteOptions{})
}

// WriteDocOpts persists frag as Shards parts replicated Replicas times
// across dirs. Every part file is fsynced (file and directory) before
// any manifest names it, and each directory's manifest is published
// atomically (write-to-tmp, fsync, rename, fsync dir) — a crash mid-
// write leaves either no trace of the document or a mountable subset of
// replicas, never a manifest pointing at torn parts.
func WriteDocOpts(dirs []string, uri string, frag *xmltree.Fragment, opts WriteOptions) error {
	n := frag.Len()
	if n == 0 {
		return fmt.Errorf("store: refusing to write empty document %q", uri)
	}
	if len(dirs) < 1 {
		return fmt.Errorf("store: no target directories")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = len(dirs)
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(dirs) {
		return fmt.Errorf("store: %d replicas need %d directories, have %d", replicas, replicas, len(dirs))
	}

	// Load (or initialize) every directory's manifest up front and
	// refuse duplicates before writing any file.
	manifests := make(map[string]*manifest, len(dirs))
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		m := &manifest{Format: formatVersion}
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
			var merr error
			m, merr = readManifest(dir)
			if merr != nil {
				return merr
			}
			for _, d := range m.Docs {
				if d.URI == uri {
					return fmt.Errorf("store: %s already holds parts of %q", dir, uri)
				}
			}
		}
		manifests[dir] = m
	}

	// Phase 1: part files — every replica written and fsynced, then the
	// directories, so the data is durable before anything names it.
	adds := make(map[string][]manifestPart, len(dirs))
	for k := 0; k < shards; k++ {
		lo, hi := k*n/shards, (k+1)*n/shards
		file := partFileName(uri, k)
		for r := 0; r < replicas; r++ {
			dir := dirs[(k+r)%len(dirs)]
			if err := writePart(filepath.Join(dir, file), frag, lo, hi); err != nil {
				return err
			}
			adds[dir] = append(adds[dir], manifestPart{
				File: file, Index: k, Of: shards, Nodes: int64(hi - lo),
				Replica: r, Replicas: replicas,
			})
		}
	}
	for _, dir := range dirs {
		if len(adds[dir]) > 0 {
			if err := syncDir(dir); err != nil {
				return err
			}
		}
	}

	// The torn-write window: parts durable, manifests not yet written. A
	// crash (or an injected one) here leaves orphaned part files that no
	// manifest names — invisible to mounts, overwritten by a rerun.
	if p := fault.Armed(); p != nil && p.Fire(fault.Torn, p.Next(fault.Writes)) {
		return fmt.Errorf("store: injected torn write: crashed before publishing manifests for %q (fault plan)", uri)
	}

	// Phase 2: publish — per-directory manifest updates, each atomic.
	for _, dir := range dirs {
		parts := adds[dir]
		if len(parts) == 0 {
			continue
		}
		m := manifests[dir]
		m.Docs = append(m.Docs, manifestDoc{URI: uri, Parts: parts})
		if err := writeManifest(dir, m); err != nil {
			return err
		}
	}
	return nil
}

// writePart writes rows [lo, hi) of frag as one part file. The section
// table is patched into the header after the sections (and their CRCs)
// have streamed out.
func writePart(path string, frag *xmltree.Fragment, lo, hi int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	w := &partWriter{f: f, off: headerSize}
	if err := w.seekPastHeader(); err != nil {
		return err
	}

	var hdr header
	hdr.nodes = uint64(hi - lo)
	hdr.rowLo = uint64(lo)
	hdr.dictN = uint64(len(frag.Names))

	// kind: one byte per node.
	w.begin(&hdr.secs[sKind])
	for i := lo; i < hi; i++ {
		w.byte(byte(frag.Kind[i]))
	}
	w.end(&hdr.secs[sKind])

	for si, col := range [][]int32{frag.Size, frag.Level, frag.Parent} {
		s := &hdr.secs[sSize+si]
		w.begin(s)
		for i := lo; i < hi; i++ {
			w.u32(uint32(col[i]))
		}
		w.end(s)
	}

	// Every part carries the fragment's whole name dictionary, so the
	// name ids go out as they are.
	w.begin(&hdr.secs[sNameID])
	for _, id := range frag.Name[lo:hi] {
		w.u32(id)
	}
	w.end(&hdr.secs[sNameID])

	w.begin(&hdr.secs[sDict])
	for _, s := range frag.Names {
		w.u32(uint32(len(s)))
		w.bytes([]byte(s))
	}
	w.end(&hdr.secs[sDict])

	w.begin(&hdr.secs[sValOff])
	off := uint64(0)
	w.u64(0)
	for i := lo; i < hi; i++ {
		off += uint64(len(frag.Value[i]))
		w.u64(off)
	}
	w.end(&hdr.secs[sValOff])

	w.begin(&hdr.secs[sValHeap])
	for i := lo; i < hi; i++ {
		w.bytes([]byte(frag.Value[i]))
	}
	w.end(&hdr.secs[sValHeap])

	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		return err
	}
	// Patch the now-complete header over the zeroes written first.
	hb := make([]byte, headerSize)
	copy(hb, magic)
	binary.LittleEndian.PutUint32(hb[8:], formatVersion)
	binary.LittleEndian.PutUint32(hb[12:], numSections)
	binary.LittleEndian.PutUint64(hb[16:], hdr.nodes)
	binary.LittleEndian.PutUint64(hb[24:], hdr.rowLo)
	binary.LittleEndian.PutUint64(hb[32:], hdr.dictN)
	for i, s := range hdr.secs {
		base := 40 + i*24
		binary.LittleEndian.PutUint64(hb[base:], s.off)
		binary.LittleEndian.PutUint64(hb[base+8:], s.len)
		binary.LittleEndian.PutUint32(hb[base+16:], s.crc)
	}
	if _, err := f.WriteAt(hb, 0); err != nil {
		return err
	}
	// Durability: the part's bytes must be on disk before any manifest
	// names the file — tmp+rename on the manifest alone still leaves a
	// crash window where a valid manifest points at torn parts.
	return f.Sync()
}

// partWriter streams section bytes with running CRC and 8-byte section
// alignment, through a fixed buffer so a multi-GB part never needs a
// section-sized allocation.
type partWriter struct {
	f   *os.File
	buf [1 << 16]byte
	n   int
	off uint64
	crc uint32
	err error
}

func (w *partWriter) seekPastHeader() error {
	var zero [headerSize]byte
	_, err := w.f.Write(zero[:])
	return err
}

func (w *partWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.n > 0 {
		if _, err := w.f.Write(w.buf[:w.n]); err != nil {
			w.err = err
			return err
		}
		w.n = 0
	}
	return nil
}

func (w *partWriter) bytes(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	w.off += uint64(len(b))
	for len(b) > 0 {
		c := copy(w.buf[w.n:], b)
		w.n += c
		b = b[c:]
		if w.n == len(w.buf) {
			if w.flush() != nil {
				return
			}
		}
	}
}

func (w *partWriter) byte(b byte) { w.bytes([]byte{b}) }

func (w *partWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *partWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.bytes(b[:])
}

// begin pads to 8-byte alignment and records the section start.
func (w *partWriter) begin(s *section) {
	var pad [8]byte
	if r := w.off % 8; r != 0 {
		// Padding is outside every section: written with the previous
		// section's crc state already captured and the next one not yet
		// started.
		w.crc = 0 // reset before the pad so it doesn't leak into the crc
		if w.err == nil {
			b := pad[:8-r]
			w.off += uint64(len(b))
			for len(b) > 0 {
				c := copy(w.buf[w.n:], b)
				w.n += c
				b = b[c:]
				if w.n == len(w.buf) {
					if w.flush() != nil {
						return
					}
				}
			}
		}
	}
	w.crc = 0
	s.off = w.off
}

// end records the section length and CRC.
func (w *partWriter) end(s *section) {
	s.len = w.off - s.off
	s.crc = w.crc
}

// parseHeader validates the fixed header of a mapped part file against
// the file's actual size, classifying every violation as ErrCorrupt.
func parseHeader(path string, data []byte) (header, error) {
	if len(data) < headerSize {
		var h header
		return h, corruptf("%s: truncated: %d bytes, header needs %d", path, len(data), headerSize)
	}
	return parseHeaderBytes(path, data[:headerSize], uint64(len(data)))
}

// parseHeaderBytes validates a part header given only its bytes and the
// file size — the streaming (no-mmap) entry verifyPartFile uses.
func parseHeaderBytes(path string, data []byte, size uint64) (header, error) {
	var h header
	if string(data[:8]) != magic {
		return h, corruptf("%s: bad magic %q", path, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return h, corruptf("%s: format version %d, this build reads %d", path, v, formatVersion)
	}
	if s := binary.LittleEndian.Uint32(data[12:]); s != numSections {
		return h, corruptf("%s: %d sections, expected %d", path, s, numSections)
	}
	h.nodes = binary.LittleEndian.Uint64(data[16:])
	h.rowLo = binary.LittleEndian.Uint64(data[24:])
	h.dictN = binary.LittleEndian.Uint64(data[32:])
	for i := range h.secs {
		base := 40 + i*24
		h.secs[i].off = binary.LittleEndian.Uint64(data[base:])
		h.secs[i].len = binary.LittleEndian.Uint64(data[base+8:])
		h.secs[i].crc = binary.LittleEndian.Uint32(data[base+16:])
		s := h.secs[i]
		if s.off < headerSize || s.off > size || s.len > size-s.off {
			return h, corruptf("%s: %s section [%d,+%d) outside file of %d bytes (truncated?)",
				path, sectionName(i), s.off, s.len, size)
		}
		if s.off%8 != 0 {
			return h, corruptf("%s: %s section misaligned at %d", path, sectionName(i), s.off)
		}
	}
	n := h.nodes
	for i, want := range []uint64{n, 4 * n, 4 * n, 4 * n, 4 * n} {
		if h.secs[i].len != want {
			return h, corruptf("%s: %s section holds %d bytes, %d nodes need %d",
				path, sectionName(i), h.secs[i].len, n, want)
		}
	}
	if h.secs[sValOff].len != 8*(n+1) {
		return h, corruptf("%s: value offsets hold %d bytes, %d nodes need %d",
			path, h.secs[sValOff].len, n, 8*(n+1))
	}
	return h, nil
}

// verifySections checks every section CRC. It touches every page of the
// mapping; callers drop the page cache afterwards so verification does
// not pin the whole corpus resident.
func verifySections(path string, data []byte, h header) error {
	for i, s := range h.secs {
		got := crc32.ChecksumIEEE(data[s.off : s.off+s.len])
		if got != s.crc {
			return corruptf("%s: %s section checksum mismatch (%08x != %08x)", path, sectionName(i), got, s.crc)
		}
	}
	return nil
}
