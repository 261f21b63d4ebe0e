package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	exrquy "repro"
	"repro/internal/store"
	"repro/internal/xmark"
)

// TestScrubEndpoint drives the operator repair path over HTTP: attach a
// replicated store, corrupt a standby replica on disk, POST
// /stores/scrub, and the response reports the quarantine and the
// re-replication the scrubber performed.
func TestScrubEndpoint(t *testing.T) {
	frag := xmark.Generate(xmark.Config{Factor: 0.001})
	dirs := []string{t.TempDir(), t.TempDir()}
	if err := store.WriteDocOpts(dirs, "auction.xml", frag, store.WriteOptions{Replicas: 2}); err != nil {
		t.Fatalf("write store: %v", err)
	}

	_, base := startServer(t, Config{})
	body := fmt.Sprintf(`{"dirs":[%q,%q]}`, dirs[0], dirs[1])
	resp, err := http.Post(base+"/stores", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("attach status %d, want 201", resp.StatusCode)
	}

	// Flip a byte in part 0's standby replica (active copy is in dirs[0]).
	standby := filepath.Join(dirs[1], "auction.xml.part000.xrq")
	fi, err := os.Stat(standby)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(standby, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A malformed pacing parameter is the request's fault.
	resp, err = http.Post(base+"/stores/scrub?bps=nope", "application/json", nil)
	if err != nil {
		t.Fatalf("scrub bad bps: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?bps= status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(base+"/stores/scrub", "application/json", nil)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]store.ScrubStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("scrub response %q: %v", raw, err)
	}
	if len(stats) != 1 {
		t.Fatalf("scrub stats for %d mounts, want 1: %s", len(stats), raw)
	}
	for _, st := range stats {
		if st.Errors < 1 || st.Quarantined < 1 || st.Rereplicated < 1 {
			t.Fatalf("scrub missed the corrupt standby: %+v", st)
		}
	}
	if _, err := os.Stat(standby + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(standby); err != nil {
		t.Fatalf("re-replicated standby missing: %v", err)
	}

	// The repaired store still serves.
	status, body2, _ := get(t, queryURL(base, `count(doc("auction.xml")//item)`))
	if status != http.StatusOK {
		t.Fatalf("query after scrub: %d %s", status, body2)
	}
}

// TestStoreListDetachEndpoints drives the rest of /stores: GET lists the
// mount with its documents, DELETE ?dir= unmounts it (its documents stop
// answering), an unknown or missing dir is the request's fault, and a
// draining server turns the request away with a retry hint.
func TestStoreListDetachEndpoints(t *testing.T) {
	frag := xmark.Generate(xmark.Config{Factor: 0.001})
	dir := t.TempDir()
	if err := store.WriteDocOpts([]string{dir}, "auction.xml", frag, store.WriteOptions{Replicas: 1}); err != nil {
		t.Fatalf("write store: %v", err)
	}
	s, base := startServer(t, Config{})
	resp, err := http.Post(base+"/stores", "application/json", strings.NewReader(fmt.Sprintf(`{"dirs":[%q]}`, dir)))
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("attach status %d, want 201", resp.StatusCode)
	}

	status, body, _ := get(t, base+"/stores")
	var mounts []exrquy.StoreMountInfo
	if err := json.Unmarshal([]byte(body), &mounts); status != http.StatusOK || err != nil {
		t.Fatalf("GET /stores: %d %s (%v)", status, body, err)
	}
	if len(mounts) != 1 || len(mounts[0].URIs) != 1 || mounts[0].URIs[0] != "auction.xml" || mounts[0].Key == "" {
		t.Fatalf("GET /stores lists %+v, want one mount serving auction.xml", mounts)
	}

	del := func(rawURL string) (int, []byte, http.Header) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, rawURL, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", rawURL, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw, resp.Header
	}
	detachURL := base + "/stores?dir=" + url.QueryEscape(dir)
	status, raw, _ := del(detachURL)
	var detached storeResponse
	if err := json.Unmarshal(raw, &detached); status != http.StatusOK || err != nil {
		t.Fatalf("DELETE /stores: %d %s (%v)", status, raw, err)
	}
	if len(detached.URIs) != 1 || detached.URIs[0] != "auction.xml" || detached.Key != mounts[0].Key {
		t.Fatalf("DELETE /stores answered %+v, want key %s and auction.xml", detached, mounts[0].Key)
	}
	if status, body, _ := get(t, queryURL(base, `count(doc("auction.xml")//item)`)); status == http.StatusOK {
		t.Fatalf("query after detach answered 200: %s", body)
	}

	if status, raw, _ := del(detachURL); status != http.StatusNotFound {
		t.Fatalf("second DELETE: %d %s, want 404", status, raw)
	}
	if status, raw, _ := del(base + "/stores"); status != http.StatusBadRequest {
		t.Fatalf("DELETE without ?dir=: %d %s, want 400", status, raw)
	}

	s.draining.Store(true)
	status, raw, hdr := del(detachURL)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); status != http.StatusServiceUnavailable || err != nil || eb.Code != "draining" || hdr.Get("Retry-After") == "" {
		t.Fatalf("DELETE while draining: %d %s Retry-After %q, want 503, code draining and a Retry-After", status, raw, hdr.Get("Retry-After"))
	}
}
