package exrquy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentLoadAndQuery exercises the documented concurrency
// contract: documents may be loaded (and the registry listed) while
// compiled queries execute on other goroutines, and a shared *Query is
// reusable concurrently. Run under -race this is the registry-locking
// regression test.
func TestConcurrentLoadAndQuery(t *testing.T) {
	eng := New()
	if err := eng.LoadDocumentString("t.xml", "<a><b>1</b><b>2</b><b>3</b></a>"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(`count(doc("t.xml")/a/b)`)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		loaders = 2
		rounds  = 50
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				res, err := q.Execute()
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if xml, _ := res.XML(); xml != "3" {
					t.Errorf("result = %q, want 3", xml)
					return
				}
			}
		}()
	}
	for l := 0; l < loaders; l++ {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("extra-%d-%d.xml", l, i)
				if err := eng.LoadDocumentString(name, "<x/>"); err != nil {
					t.Errorf("load %s: %v", name, err)
					return
				}
				_ = eng.Documents()
				if _, err := eng.DocumentStats(name); err != nil {
					t.Errorf("stats %s: %v", name, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := len(eng.Documents()); got != 1+loaders*rounds {
		t.Errorf("registry has %d documents, want %d", got, 1+loaders*rounds)
	}
}

func TestGovernorEndToEnd(t *testing.T) {
	gov := NewGovernor(GovernorConfig{MaxConcurrent: 2, MaxBytes: 64 << 20})
	eng := New(WithGovernor(gov))
	if err := eng.LoadDocumentString("t.xml", "<a><b>1</b><b>2</b></a>"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`for $b in doc("t.xml")/a/b return $b/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueWait() != 0 {
		t.Errorf("idle single query reported queue wait %v", res.QueueWait())
	}
	st := gov.Stats()
	if st.Admitted != 1 || st.Running != 0 {
		t.Errorf("governor stats = %+v, want 1 admitted, 0 running", st)
	}
	if used := gov.Ledger().Used(); used != 0 {
		t.Errorf("ledger used = %d after query, want 0", used)
	}
}

// TestGovernorMemoryExhaustion checks the ledger surfaces through the
// public taxonomy: a governor whose global budget cannot hold the
// query's intermediates fails that query with ErrMemoryLimit (naming
// the budget), not an OOM or a hang — and the failed query's
// reservation drains back out.
func TestGovernorMemoryExhaustion(t *testing.T) {
	gov := NewGovernor(GovernorConfig{MaxConcurrent: 2, MaxBytes: 2048})
	eng := New(WithGovernor(gov))
	b := "<a>"
	for i := 0; i < 200; i++ {
		b += fmt.Sprintf("<b>%d</b>", i)
	}
	b += "</a>"
	if err := eng.LoadDocumentString("t.xml", b); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query(`for $x in doc("t.xml")/a/b, $y in doc("t.xml")/a/b return $x = $y`)
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("got %v, want ErrMemoryLimit", err)
	}
	if IsRetryable(err) {
		t.Error("memory-limit error must not be retryable")
	}
	if used := gov.Ledger().Used(); used != 0 {
		t.Errorf("ledger used = %d after failed query, want 0", used)
	}
	// The governor and engine remain serviceable after the failure.
	if _, err := eng.Query(`1 + 1`); err != nil {
		t.Errorf("tiny query after exhaustion: %v", err)
	}
}

func TestOverloadTaxonomy(t *testing.T) {
	// ErrOverload is re-exported and retryable; a queue-deadline shed
	// surfaces through the public API with its hint.
	gov := NewGovernor(GovernorConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 10 * time.Millisecond})
	eng := New(WithGovernor(gov))
	if err := eng.LoadDocumentString("t.xml", "<a/>"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Compile(`doc("t.xml")/a`)
	if err != nil {
		t.Fatal(err)
	}

	// The public API has no lease handle to pin the slot with, so this is
	// a statistical check: saturate the one-slot governor and require the
	// taxonomy to hold for every outcome — successes plus well-formed,
	// retryable overloads, nothing else.
	var wg sync.WaitGroup
	var mu sync.Mutex
	kinds := map[string]int{}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.ExecuteContext(context.Background())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				kinds["ok"]++
			case errors.Is(err, ErrOverload):
				if !IsRetryable(err) {
					t.Error("overload not retryable")
				}
				if _, ok := RetryAfterOf(err); !ok {
					t.Error("overload without a retry hint")
				}
				kinds["overload"]++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if kinds["ok"] == 0 {
		t.Errorf("no query succeeded: %v", kinds)
	}
	if st := gov.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("governor not idle: %+v", st)
	}
}
