package serve

// Graceful-drain tests: SIGTERM arriving mid-stream must let every
// in-flight result stream finish byte-complete, flip /healthz to 503,
// reject new connections with a typed draining error, and return within
// the drain deadline — losing zero in-flight queries. The crash during
// the drain window lives in the root package (drain_crash_test.go),
// which can open a database on a fault-injecting backend.

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestDrainSIGTERMFinishesInflightStreams(t *testing.T) {
	checkGoroutines(t)
	db := newTestDB(t)
	staticDoc, err := db.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	want := expectedStream(t, db, staticDoc, "//title")

	// The hook pins admitted requests so the drain provably starts while
	// they are mid-flight.
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		DB:           db,
		DrainTimeout: 10 * time.Second,
		Hooks: Hooks{PostAdmit: func(string) {
			started <- struct{}{}
			<-release
		}},
	})

	// Three in-flight streams.
	const inflight = 3
	bodies := make(chan []byte, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, ts, "", "doc=lib&q=//title")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("in-flight stream status = %d", resp.StatusCode)
			}
			bodies <- []byte(body)
		}()
	}
	for i := 0; i < inflight; i++ {
		<-started
	}

	// Deliver a real SIGTERM to this process; the server's signal
	// handler must start the drain.
	drained := s.HandleSignals(syscall.SIGTERM)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Draining state must become observable while the streams are still
	// pinned in flight.
	waitDraining(t, s)

	// New work is rejected with the typed draining error while the
	// in-flight streams are still running.
	resp, body := get(t, ts, "", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status = %d (%s)", resp.StatusCode, body)
	}
	if we := decodeWireError(t, body); we.Code != CodeDraining {
		t.Fatalf("drain envelope = %+v", we)
	}

	// Unpin: the in-flight streams finish and must be byte-complete.
	close(release)
	wg.Wait()
	for i := 0; i < inflight; i++ {
		if got := <-bodies; !bytes.Equal(got, want) {
			t.Fatalf("drained stream truncated: got %d bytes, want %d", len(got), len(want))
		}
	}

	// The drain completes well within its deadline.
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete after in-flight streams finished")
	}

	if inflightN, queued, draining := s.adm.stats(); inflightN != 0 || queued != 0 || !draining {
		t.Fatalf("post-drain stats = %d/%d/%v", inflightN, queued, draining)
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	checkGoroutines(t)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		Hooks: Hooks{PostAdmit: func(string) {
			started <- struct{}{}
			<-release
		}},
	})

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, ts, "", "doc=lib&q=//title")
	}()
	<-started

	// A drain bounded tighter than the stuck request must give up with
	// the context's error rather than hang.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("expired drain err = %v, want context.DeadlineExceeded", err)
	}
}

// waitDraining blocks until the server reports draining.
func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, draining := s.adm.stats(); draining {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never entered draining state")
}
