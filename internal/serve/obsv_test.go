package serve

// Request-observability tests: wire request IDs (generated, adopted,
// echoed), the access log and request rings, per-tenant cumulative
// counters and latency quantiles in Stats, and the combined
// serve+engine span tree in the flight recorder.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana"
)

var generatedIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// syncBuffer is a goroutine-safe bytes.Buffer: rs.finish writes the
// access log after the response is complete, so the test must not race
// the handler's deferred write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until true or the deadline — request records land
// in deferred handlers after the response body is flushed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRequestIDValidation(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-123_x.y":              true,
		"a":                        true,
		strings.Repeat("a", 64):    true,
		"":                         false,
		strings.Repeat("a", 65):    false,
		"has space":                false,
		"quote\"inside":            false,
		"non-ascii-\xc3\xa9":       false,
		"newline\ninjection":       false,
		"semi;colon":               false,
		"0123456789abcdefABCDEF-.": true,
	} {
		if got := validRequestID(id); got != want {
			t.Errorf("validRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestTraceparentID(t *testing.T) {
	for tp, want := range map[string]string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01": "4bf92f3577b34da6a3ce929d0e0e4736",
		// All-zero trace-id is invalid per the W3C spec.
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01": "",
		// Uppercase hex is invalid (spec requires lowercase).
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01": "",
		"garbage":                      "",
		"":                             "",
		"00-short-00f067aa0ba902b7-01": "",
	} {
		if got := traceparentID(tp); got != want {
			t.Errorf("traceparentID(%q) = %q, want %q", tp, got, want)
		}
	}
}

// TestRequestIDPropagation drives the three ID sources through real
// HTTP: client-supplied X-Vamana-Request wins, then the traceparent
// trace-id, else a generated 16-hex ID; invalid client IDs are replaced
// and the resolved ID is always echoed.
func TestRequestIDPropagation(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})

	do := func(hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?doc=lib&q=//title", nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	t.Run("generated", func(t *testing.T) {
		resp := do(nil)
		id := resp.Header.Get(RequestHeader)
		if !generatedIDPattern.MatchString(id) {
			t.Fatalf("generated ID = %q, want 16 hex digits", id)
		}
		// Distinct per request.
		if id2 := do(nil).Header.Get(RequestHeader); id2 == id {
			t.Fatalf("two requests got the same generated ID %q", id)
		}
	})
	t.Run("client-supplied", func(t *testing.T) {
		resp := do(map[string]string{RequestHeader: "client-req-42"})
		if got := resp.Header.Get(RequestHeader); got != "client-req-42" {
			t.Fatalf("echoed ID = %q, want the client's", got)
		}
	})
	t.Run("invalid client ID replaced", func(t *testing.T) {
		resp := do(map[string]string{RequestHeader: "has spaces!"})
		got := resp.Header.Get(RequestHeader)
		if !generatedIDPattern.MatchString(got) {
			t.Fatalf("invalid client ID should be replaced with a generated one, got %q", got)
		}
	})
	t.Run("traceparent adopted", func(t *testing.T) {
		resp := do(map[string]string{
			TraceparentHeader: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		})
		if got := resp.Header.Get(RequestHeader); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("traceparent trace-id not adopted: %q", got)
		}
	})
	t.Run("explicit header beats traceparent", func(t *testing.T) {
		resp := do(map[string]string{
			RequestHeader:     "explicit-wins",
			TraceparentHeader: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		})
		if got := resp.Header.Get(RequestHeader); got != "explicit-wins" {
			t.Fatalf("ID = %q, want the explicit header", got)
		}
	})
	t.Run("queue wait header present", func(t *testing.T) {
		resp := do(nil)
		qw := resp.Header.Get(QueueWaitHeader)
		if qw == "" {
			t.Fatal("no X-Vamana-Queue-Wait header")
		}
		if _, err := time.ParseDuration(qw); err != nil {
			t.Fatalf("queue wait %q is not a duration: %v", qw, err)
		}
	})
}

// TestAccessLogAndRequestRings checks one request's record is visible,
// with the same wire ID, in the NDJSON access log, the recent ring, and
// (below the 1ns threshold everything is slow) the slow ring.
func TestAccessLogAndRequestRings(t *testing.T) {
	checkGoroutines(t)
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		AccessLog:            &logBuf,
		SlowRequestThreshold: time.Nanosecond,
	})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?doc=lib&q=//title", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestHeader, "ring-test-1")
	req.Header.Set(TenantHeader, "ringer")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitFor(t, "access log line", func() bool {
		return strings.Contains(logBuf.String(), "ring-test-1")
	})
	line := strings.TrimSpace(logBuf.String())
	var rec RequestRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	if rec.ID != "ring-test-1" || rec.Tenant != "ringer" || rec.Doc != "lib" ||
		rec.Expr != "//title" || rec.Outcome != OutcomeOK || rec.Status != http.StatusOK {
		t.Fatalf("access log record = %+v", rec)
	}
	if rec.Results != 20 || rec.Bytes == 0 || rec.Total <= 0 || rec.ExprHash == "" {
		t.Fatalf("access log counters = %+v", rec)
	}
	if rec.TTFB <= 0 || rec.TTFB > rec.Total {
		t.Fatalf("ttfb = %v outside (0, total=%v]", rec.TTFB, rec.Total)
	}

	// The same record, most recent first, in both debug rings.
	dresp, err := ts.Client().Get(ts.URL + "/debug/vamana/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var payload struct {
		Recent []RequestRecord `json:"recent"`
		Slow   []RequestRecord `json:"slow"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Recent) == 0 || payload.Recent[0].ID != "ring-test-1" {
		t.Fatalf("recent ring = %+v", payload.Recent)
	}
	if len(payload.Slow) == 0 || payload.Slow[0].ID != "ring-test-1" {
		t.Fatalf("slow ring (1ns threshold) = %+v", payload.Slow)
	}
}

// TestAccessLogRejectionRecord: a rejected request still produces a
// complete record, with the typed rejection reason and outcome.
func TestAccessLogRejectionRecord(t *testing.T) {
	checkGoroutines(t)
	var logBuf syncBuffer
	s, ts := newTestServer(t, Config{AccessLog: &logBuf})
	s.adm.drain()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?doc=lib&q=//title", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestHeader, "rejected-req-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}

	waitFor(t, "rejection log line", func() bool {
		return strings.Contains(logBuf.String(), "rejected-req-1")
	})
	var rec RequestRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(logBuf.String())), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != OutcomeRejected || rec.Reason != string(RejectDraining) ||
		rec.Status != http.StatusServiceUnavailable {
		t.Fatalf("rejection record = %+v", rec)
	}
}

// TestTenantCumulativeStats: served/rejected/bytes-streamed counters and
// latency quantiles per tenant in Stats and on /v1/stats.
func TestTenantCumulativeStats(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{})

	for i := 0; i < 3; i++ {
		resp, body := get(t, ts, "cumulative", "doc=lib&q=//title")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d (%s)", resp.StatusCode, body)
		}
	}

	// Counters are bumped in deferred handlers after the body is
	// flushed; poll until they land.
	waitFor(t, "served counter", func() bool {
		return s.Stats().Tenants["cumulative"].Served == 3
	})
	st := s.Stats().Tenants["cumulative"]
	if st.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0", st.Rejected)
	}
	if st.BytesStreamed == 0 {
		t.Fatalf("bytes streamed = 0 after 3 streamed responses")
	}
	if st.LatencyP50 <= 0 || st.LatencyP95 < st.LatencyP50 || st.LatencyP99 < st.LatencyP95 {
		t.Fatalf("latency quantiles not monotone: p50=%v p95=%v p99=%v",
			st.LatencyP50, st.LatencyP95, st.LatencyP99)
	}

	// A rejection (drain) increments rejected but not served.
	s.adm.drain()
	resp, _ := get(t, ts, "cumulative", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	waitFor(t, "rejected counter", func() bool {
		return s.Stats().Tenants["cumulative"].Rejected == 1
	})
	if got := s.Stats().Tenants["cumulative"].Served; got != 3 {
		t.Fatalf("served after rejection = %d, want 3", got)
	}

	// The same numbers over the wire.
	hresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var wire Stats
	if err := json.NewDecoder(hresp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	wt, ok := wire.Tenants["cumulative"]
	if !ok || wt.Served != 3 || wt.Rejected != 1 || wt.BytesStreamed != st.BytesStreamed {
		t.Fatalf("/v1/stats tenant = %+v (ok=%v)", wt, ok)
	}
}

// TestRequestTraceNesting is the acceptance check: one traced request
// lands in the flight recorder as a single combined trace — serve-layer
// spans (admission, prepare, ttfb, stream) nested above the engine's
// operator span tree, stamped with the wire request ID and tenant, and
// exportable as one Chrome-trace timeline — whether its plan came from
// the cache or its tenant was over the plan quota.
func TestRequestTraceNesting(t *testing.T) {
	checkGoroutines(t)
	db, err := vamana.Open(vamana.Options{FlightRecorderSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadXMLString("lib", "<lib><a><b/></a><a><b/></a></lib>"); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		DB: db,
		Tenants: map[string]TenantConfig{
			"capped": {PlanQuota: 1},
		},
	})
	get := func(id, tenant, expr string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?doc=lib&q="+expr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(RequestHeader, id)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}

	// A cached request, and one over its tenant's plan quota: the latter
	// compiles a throwaway plan and runs it through Prepare→Run, which
	// must join the request trace just the same.
	get("", "capped", "//a") // fills the one-plan quota
	for _, c := range []struct{ id, tenant string }{
		{"trace-nest-1", "tracer"},
		{"trace-nest-over-quota", "capped"},
	} {
		get(c.id, c.tenant, "//b")
		checkRequestTrace(t, db, c.id, c.tenant)
	}
	if got := s.Stats().Tenants["capped"].PlansCached; got != 1 {
		t.Fatalf("capped tenant cached %d plans, want 1 (the //b request was not over quota)", got)
	}
}

// checkRequestTrace asserts the flight recorder holds one combined
// trace for request id: serve-layer spans nesting the engine's operator
// tree, exportable to Chrome with the wire ID.
func checkRequestTrace(t *testing.T, db *vamana.DB, id, tenant string) {
	t.Helper()
	// The combined trace is recorded by a deferred handler after the
	// response completes.
	var tr *vamana.QueryTrace
	waitFor(t, "combined trace in the flight recorder", func() bool {
		for _, c := range db.RecentTraces() {
			if c.Request == id {
				tr = c
				return true
			}
		}
		return false
	})

	if tr.Tenant != tenant {
		t.Fatalf("trace tenant = %q", tr.Tenant)
	}
	root := tr.Root
	if root == nil || root.Name != "request" || root.Kind != "serve" {
		t.Fatalf("trace root = %+v, want the serve-layer request span", root)
	}
	if root.Attrs["request"] != id || root.Attrs["tenant"] != tenant ||
		root.Attrs["outcome"] != OutcomeOK {
		t.Fatalf("request span attrs = %v", root.Attrs)
	}

	// The children: admission, prepare, the engine operator tree, the
	// ttfb marker, and the stream drain — all inside [0, root.EndNS].
	names := make(map[string]bool)
	var engineRoot bool
	for _, c := range root.Children {
		names[c.Name] = true
		if c.Kind != "serve" {
			engineRoot = true // the grafted operator span tree
			if len(c.Children) == 0 && c.Name == "" {
				t.Fatalf("engine child looks empty: %+v", c)
			}
		}
		if c.StartNS < 0 || c.EndNS > root.EndNS || c.StartNS > c.EndNS {
			t.Fatalf("child span %q [%d,%d] outside request [0,%d]",
				c.Name, c.StartNS, c.EndNS, root.EndNS)
		}
	}
	for _, want := range []string{"admission", "prepare", "stream", "ttfb"} {
		if !names[want] {
			t.Fatalf("missing serve span %q in %v", want, names)
		}
	}
	if !engineRoot {
		t.Fatalf("engine operator span tree not grafted under the request span: %v", names)
	}

	// The whole thing exports as one Chrome trace with the wire ID.
	var chrome bytes.Buffer
	if err := vamana.WriteChromeTrace(&chrome, []*vamana.QueryTrace{tr}); err != nil {
		t.Fatal(err)
	}
	out := chrome.String()
	for _, want := range []string{id, `"request"`, `"admission"`, `"stream"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s:\n%s", want, out)
		}
	}
}

// TestDisableRequestObs: with request observability off the wire is
// clean — no ID/queue-wait headers, empty rings — but the cumulative
// tenant counters stay truthful.
func TestDisableRequestObs(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{DisableRequestObs: true})

	resp, body := get(t, ts, "plain", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if id := resp.Header.Get(RequestHeader); id != "" {
		t.Fatalf("request ID header present with obs disabled: %q", id)
	}
	if qw := resp.Header.Get(QueueWaitHeader); qw != "" {
		t.Fatalf("queue wait header present with obs disabled: %q", qw)
	}

	dresp, err := ts.Client().Get(ts.URL + "/debug/vamana/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var payload struct {
		Recent []RequestRecord `json:"recent"`
		Slow   []RequestRecord `json:"slow"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Recent) != 0 || len(payload.Slow) != 0 {
		t.Fatalf("rings populated with obs disabled: %+v", payload)
	}

	waitFor(t, "served counter with obs disabled", func() bool {
		st := s.Stats().Tenants["plain"]
		return st.Served == 1 && st.BytesStreamed > 0
	})
}
