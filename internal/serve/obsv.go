package serve

// Request observability: the serving half of the flight recorder. Every
// /v1/query request gets a wire request ID (generated, or adopted from
// X-Vamana-Request / a W3C traceparent), echoed on the response and
// stamped into the engine's trace context, so one identifier joins the
// client's log line, the access log, the recent/slow request rings, and
// the span timeline in `vamana traces`. The serve layer's own phases —
// admission wait, prepare, engine execution, first byte, stream drain —
// are grafted as parent spans above the engine's operator span tree and
// recorded as one combined trace per request.
//
// Everything here is gated by Config.DisableRequestObs; the daemon's
// behavior with it set is byte-identical to a daemon without this file
// (minus the cumulative tenant counters, which are accounting, not
// observability).

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vamana"
	"vamana/internal/obs"
)

// Wire headers for request observability.
const (
	// RequestHeader carries the request ID: client-supplied on the
	// request (adopted when valid), always echoed on the response.
	RequestHeader = "X-Vamana-Request"
	// TraceparentHeader is the W3C trace-context header; its trace-id
	// field is adopted as the request ID when no RequestHeader is given.
	TraceparentHeader = "traceparent"
	// QueueWaitHeader reports, on the response, how long the request sat
	// in the admission queue (Go duration string; "0s" when a slot was
	// free on arrival).
	QueueWaitHeader = "X-Vamana-Queue-Wait"
)

// Request outcomes — the closed label set for the per-tenant SLO
// histograms. Finer detail (rejection reason, error code) rides in the
// access log and request rings, not in metric labels.
const (
	OutcomeOK       = "ok"
	OutcomeRejected = "rejected"
	OutcomeError    = "error"
	OutcomeCanceled = "canceled"
)

// classifyOutcome maps a request's terminal error to its outcome label.
func classifyOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	default:
		switch errorCode(err) {
		case CodeOverloaded, CodeDraining:
			return OutcomeRejected
		case CodeCanceled:
			return OutcomeCanceled
		default:
			return OutcomeError
		}
	}
}

// validRequestID accepts client-supplied request IDs: 1-64 bytes of
// URL-safe ASCII (alphanumerics, '-', '_', '.'), so IDs embed cleanly
// in headers, logs, and trace output without escaping.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// traceparentID extracts the trace-id field from a W3C traceparent
// header ("00-<32 hex>-<16 hex>-<2 hex>"), empty when malformed or
// all-zero.
func traceparentID(tp string) string {
	if len(tp) < 55 || tp[2] != '-' || tp[35] != '-' || tp[52] != '-' {
		return ""
	}
	id := tp[3:35]
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return ""
	}
	return id
}

// RequestRecord is one finished /v1/query request as the access log and
// the /debug/vamana/requests rings report it.
type RequestRecord struct {
	Time     time.Time `json:"time"`
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Doc      string    `json:"doc"`
	Expr     string    `json:"expr"`
	ExprHash string    `json:"expr_hash"`
	Outcome  string    `json:"outcome"`
	// Reason is the admission rejection reason, empty otherwise.
	Reason string `json:"reason,omitempty"`
	Status int    `json:"status"`
	// QueueWait is the admission queue wait; TTFB the time to the
	// response's first byte (zero when nothing was written); Total the
	// end-to-end request duration.
	QueueWait time.Duration `json:"queue_wait_ns"`
	TTFB      time.Duration `json:"ttfb_ns,omitempty"`
	Total     time.Duration `json:"total_ns"`
	Results   uint64        `json:"results"`
	Bytes     uint64        `json:"bytes"`
	// TraceID links the record to its flight-recorder trace (vamana
	// traces), zero when the run was not traced.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// exprHash is a stable short hash of a query expression — the access
// log's join key for "same query, many requests" aggregation without
// logging unbounded expression text twice.
func exprHash(expr string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, expr)
	return strconv.FormatUint(h.Sum64(), 16)
}

// appendRecord appends rec as one NDJSON access-log line. Hand-built
// for fixed field order and one allocation-free pass (the log is on the
// request path when configured).
func appendRecord(dst []byte, rec *RequestRecord) []byte {
	dst = append(dst, `{"time":`...)
	dst = appendJSONString(dst, rec.Time.Format(time.RFC3339Nano))
	dst = append(dst, `,"id":`...)
	dst = appendJSONString(dst, rec.ID)
	dst = append(dst, `,"tenant":`...)
	dst = appendJSONString(dst, rec.Tenant)
	dst = append(dst, `,"doc":`...)
	dst = appendJSONString(dst, rec.Doc)
	dst = append(dst, `,"expr":`...)
	dst = appendJSONString(dst, rec.Expr)
	dst = append(dst, `,"expr_hash":`...)
	dst = appendJSONString(dst, rec.ExprHash)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, rec.Outcome)
	if rec.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, rec.Reason)
	}
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(rec.Status), 10)
	dst = append(dst, `,"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, rec.QueueWait.Nanoseconds(), 10)
	if rec.TTFB > 0 {
		dst = append(dst, `,"ttfb_ns":`...)
		dst = strconv.AppendInt(dst, rec.TTFB.Nanoseconds(), 10)
	}
	dst = append(dst, `,"total_ns":`...)
	dst = strconv.AppendInt(dst, rec.Total.Nanoseconds(), 10)
	dst = append(dst, `,"results":`...)
	dst = strconv.AppendUint(dst, rec.Results, 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendUint(dst, rec.Bytes, 10)
	if rec.TraceID != 0 {
		dst = append(dst, `,"trace_id":`...)
		dst = strconv.AppendUint(dst, rec.TraceID, 10)
	}
	return append(dst, '}', '\n')
}

// accessLog serializes NDJSON record lines onto one writer.
type accessLog struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

func (l *accessLog) write(rec *RequestRecord) {
	l.mu.Lock()
	l.buf = appendRecord(l.buf[:0], rec)
	_, _ = l.w.Write(l.buf)
	l.mu.Unlock()
}

// requestObs is the server's request-observability state: ID
// generation, the optional access log, and the recent/slow rings
// (/debug/vamana/requests, most recent first; nil when disabled).
type requestObs struct {
	log    *accessLog // nil: no access log
	recent *obs.Ring[RequestRecord]
	slow   *obs.Ring[RequestRecord]
	slowAt time.Duration

	salt uint64
	seq  atomic.Uint64
}

func newRequestObs(logW io.Writer, ringSize int, slowAt time.Duration) *requestObs {
	o := &requestObs{slowAt: slowAt}
	// One syscall at startup, none per request: IDs are the process salt
	// XOR a Weyl sequence, so concurrent requests get distinct,
	// unpredictable-enough 16-hex-digit IDs without contending on a
	// global rand.
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		o.salt = binary.LittleEndian.Uint64(b[:])
	}
	if logW != nil {
		o.log = &accessLog{w: logW}
	}
	o.recent = obs.NewRing[RequestRecord](ringSize)
	if slowAt > 0 {
		o.slow = obs.NewRing[RequestRecord](ringSize)
	}
	return o
}

// requestID resolves the request's wire ID: a valid client-supplied
// X-Vamana-Request wins, then a traceparent trace-id, else a generated
// ID.
func (o *requestObs) requestID(r *http.Request) string {
	if id := r.Header.Get(RequestHeader); id != "" && validRequestID(id) {
		return id
	}
	if id := traceparentID(r.Header.Get(TraceparentHeader)); id != "" {
		return id
	}
	v := o.salt ^ (o.seq.Add(1) * 0x9e3779b97f4a7c15)
	var hex [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		hex[i] = digits[v&0xf]
		v >>= 4
	}
	return string(hex[:])
}

// record folds one finished request into the log and rings.
func (o *requestObs) record(rec *RequestRecord) {
	if o.log != nil {
		o.log.write(rec)
	}
	o.recent.Add(*rec)
	if rec.Total >= o.slowAt || rec.Outcome == OutcomeError {
		o.slow.Add(*rec)
	}
}

// handleRequests serves /debug/vamana/requests: the recent and slow
// request rings, most recent first.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var payload struct {
		Recent []RequestRecord `json:"recent"`
		Slow   []RequestRecord `json:"slow"`
	}
	if s.obs != nil {
		payload.Recent = s.obs.recent.Snapshot()
		payload.Slow = s.obs.slow.Snapshot()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(payload)
}

// countingWriter wraps the response writer to capture status, first-
// byte time, and body bytes. Headers are committed (and flushed by
// net/http) at WriteHeader, so TTFB is measured there — the later
// bufio-buffered body writes don't skew it.
type countingWriter struct {
	http.ResponseWriter
	start  time.Time
	status int
	ttfb   time.Duration
	bytes  uint64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
		c.ttfb = time.Since(c.start)
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
		c.ttfb = time.Since(c.start)
	}
	n, err := c.ResponseWriter.Write(p)
	c.bytes += uint64(n)
	return n, err
}

// reqState threads one request's observability through handleQuery.
type reqState struct {
	srv   *Server
	tn    *tenant
	cw    *countingWriter
	start time.Time
	id    string
	doc   string
	expr  string

	queueWait time.Duration
	admitEnd  time.Duration // offset from start: admission decided
	execStart time.Duration // offset from start: engine query issued
	err       error         // terminal error (nil = clean stream)

	rt vamana.RequestTrace
}

// beginRequest opens request observability: resolve the ID and echo it
// on the response. cw is the handler's counting writer (always present;
// byte accounting is not gated on observability).
func (s *Server) beginRequest(cw *countingWriter, r *http.Request, tn *tenant, req queryRequest, start time.Time) *reqState {
	rs := &reqState{
		srv:   s,
		tn:    tn,
		cw:    cw,
		start: start,
		id:    s.obs.requestID(r),
		doc:   req.doc,
		expr:  req.expr,
	}
	rs.rt.ID = rs.id
	rs.rt.Tenant = tn.name
	cw.Header().Set(RequestHeader, rs.id)
	return rs
}

// admitted records the admission decision; the queue-wait response
// header goes out with whatever is written next.
func (rs *reqState) admitted(wait time.Duration, err error) {
	rs.queueWait = wait
	rs.admitEnd = time.Since(rs.start)
	rs.err = err
	rs.cw.Header().Set(QueueWaitHeader, wait.String())
}

// executing marks the hand-off to the engine.
func (rs *reqState) executing() { rs.execStart = time.Since(rs.start) }

// fail records the request's terminal error (first one wins — a stream
// that failed mid-flight keeps the stream error even if cleanup also
// errors).
func (rs *reqState) fail(err error) {
	if rs.err == nil {
		rs.err = err
	}
}

// finish closes out the request: histograms, access log, rings, and —
// when the engine captured a trace for this request — the combined
// serve+engine trace into the flight recorder. Runs deferred, after
// res.Close has fired the engine's finish hook (which fills
// rt.Captured).
func (rs *reqState) finish(results uint64) {
	total := time.Since(rs.start)
	outcome := classifyOutcome(rs.err)
	obs.ServerRequestLatency.Observe(total, rs.tn.name, outcome)
	obs.ServerRequestQueueWait.Observe(rs.queueWait, rs.tn.name, outcome)

	rec := RequestRecord{
		Time:      rs.start,
		ID:        rs.id,
		Tenant:    rs.tn.name,
		Doc:       rs.doc,
		Expr:      rs.expr,
		ExprHash:  exprHash(rs.expr),
		Outcome:   outcome,
		Status:    rs.cw.status,
		QueueWait: rs.queueWait,
		TTFB:      rs.cw.ttfb,
		Total:     total,
		Results:   results,
		Bytes:     rs.cw.bytes,
	}
	var oe *OverloadError
	if errors.As(rs.err, &oe) {
		rec.Reason = string(oe.Reason)
	}
	if rs.rt.Captured != nil {
		rec.TraceID = rs.rt.Captured.ID
		rs.srv.db.RecordTrace(rs.buildTrace(&rec))
	}
	rs.srv.obs.record(&rec)
}

// buildTrace grafts the serve-layer spans above the engine's captured
// span tree, producing one request-rooted trace:
//
//	request
//	├─ admission     arrival → slot grant (attrs: queue wait)
//	├─ prepare       grant → engine hand-off (tenant, doc, quota)
//	├─ <engine root> the operator span tree, shifted onto the
//	│                request timeline
//	├─ ttfb          zero-width marker at the first response byte
//	└─ stream        engine finish → last byte flushed
func (rs *reqState) buildTrace(rec *RequestRecord) *obs.QueryTrace {
	cap := rs.rt.Captured
	totalNS := rec.Total.Nanoseconds()
	// Engine span offsets are relative to the engine query's start;
	// shift them onto the request timeline.
	delta := cap.Start.Sub(rs.start).Nanoseconds()
	if delta < 0 {
		delta = 0
	}
	shiftSpans(cap.Root, delta)
	engineEnd := delta + cap.Total.Nanoseconds()
	if engineEnd > totalNS {
		engineEnd = totalNS
	}

	root := &obs.Span{
		Name: "request", Kind: "serve",
		StartNS: 0, EndNS: totalNS,
		Out: cap.Results,
		Attrs: map[string]string{
			"request": rec.ID,
			"tenant":  rec.Tenant,
			"outcome": rec.Outcome,
			"bytes":   strconv.FormatUint(rec.Bytes, 10),
		},
	}
	root.Children = append(root.Children, &obs.Span{
		Name: "admission", Kind: "serve",
		StartNS: 0, EndNS: rs.admitEnd.Nanoseconds(),
		Attrs: map[string]string{"queue_wait": rs.queueWait.String()},
	})
	root.Children = append(root.Children, &obs.Span{
		Name: "prepare", Kind: "serve",
		StartNS: rs.admitEnd.Nanoseconds(), EndNS: rs.execStart.Nanoseconds(),
	})
	if cap.Root != nil {
		root.Children = append(root.Children, cap.Root)
	}
	if rec.TTFB > 0 {
		root.Children = append(root.Children, &obs.Span{
			Name: "ttfb", Kind: "serve",
			StartNS: rec.TTFB.Nanoseconds(), EndNS: rec.TTFB.Nanoseconds(),
		})
	}
	root.Children = append(root.Children, &obs.Span{
		Name: "stream", Kind: "serve",
		StartNS: engineEnd, EndNS: totalNS,
		Out:   rec.Results,
		Attrs: map[string]string{"bytes": strconv.FormatUint(rec.Bytes, 10)},
	})

	t := *cap
	t.Start = rs.start
	t.Total = rec.Total
	t.Root = root
	return &t
}

// shiftSpans moves a span tree forward by delta nanoseconds.
func shiftSpans(s *obs.Span, delta int64) {
	if s == nil || delta == 0 {
		return
	}
	s.StartNS += delta
	s.EndNS += delta
	for _, c := range s.Children {
		shiftSpans(c, delta)
	}
}
