package vamana_test

import (
	"context"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana"
	"vamana/internal/pager/faultfs"
	"vamana/internal/serve"
)

// TestCrashDuringDrainRecovers kills the store mid-drain — after a
// transaction committed but with a stream still in flight — and
// verifies the journal brings the reopened store back to exactly the
// last committed version. It lives here rather than beside the other
// drain tests in internal/serve because only the root package's tests
// can open a database on a fault-injecting backend (OpenBackend).
func TestCrashDuringDrainRecovers(t *testing.T) {
	checkServeGoroutines(t)
	backend := faultfs.New()
	db, err := vamana.OpenBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("d", "<log><entry>base</entry></log>")
	if err != nil {
		t.Fatal(err)
	}

	// One committed transaction: this is the state recovery must restore.
	if err := db.Update(func(tx *vamana.Txn) error {
		res, err := db.Query(doc, "/log")
		if err != nil {
			return err
		}
		keys, err := res.Keys()
		if err != nil {
			return err
		}
		k, err := tx.InsertElement(doc, keys[0], -1, "entry")
		if err != nil {
			return err
		}
		_, err = tx.InsertText(doc, k, -1, "committed")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, err := serve.New(serve.Config{
		DB: db,
		Hooks: serve.Hooks{PostAdmit: func(string) {
			started <- struct{}{}
			<-release
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pin a stream in flight, then start draining.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + "/v1/query?doc=d&q=//entry")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) // the stream's outcome no longer matters
		resp.Body.Close()
	}()
	<-started
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}

	// Crash while the drain is waiting on the in-flight stream: all
	// unsynced writes are lost, exactly like a machine losing power
	// before a clean shutdown.
	backend.Crash()
	crashImage := backend.Snapshot()

	// Let the test's server machinery wind down (the in-flight request
	// finishes against the in-memory state; its result no longer
	// matters — the durability claim is about the store).
	close(release)
	wg.Wait()
	<-drainDone

	// Restart from the crash image: journal recovery must yield the
	// committed two-entry document.
	db2, err := vamana.OpenBackend(faultfs.FromBytes(crashImage))
	if err != nil {
		t.Fatalf("reopen after crash-during-drain: %v", err)
	}
	defer db2.Close()
	doc2, err := db2.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := doc2.CountName("entry"); err != nil || n != 2 {
		t.Fatalf("recovered entries = %d, %v; want 2", n, err)
	}
	var sb strings.Builder
	if err := doc2.WriteXML("a", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "committed") {
		t.Fatalf("recovered document lost committed text: %s", sb.String())
	}
}

// checkServeGoroutines fails t if goroutines in this module's serving
// or engine code outlive the test (the internal/serve leak check).
func checkServeGoroutines(t *testing.T) {
	t.Helper()
	count := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "vamana/internal/serve") || strings.Contains(g, "vamana.(") {
				n++
			}
		}
		return n
	}
	base := count()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		n := count()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = count()
		}
		if n > base {
			t.Errorf("goroutine leak: %d serve-related goroutines alive, baseline %d", n, base)
		}
	})
}
