package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"vamana/internal/serve"
)

// sample is one /v1/query request as the client saw it.
type sample struct {
	expr      string
	due       time.Time // when the schedule said to send it
	sent      time.Time
	first     time.Time // first response byte
	end       time.Time // last byte of the NDJSON stream
	nodes     int
	bytes     int
	queueWait time.Duration
	rejected  bool
	err       error
}

// latency is due-to-last-byte, which counts the wait a stall imposes on
// later requests (no coordinated omission). A failed request misses any
// limit, so it counts as the client timeout.
func (s *sample) latency() time.Duration {
	if s.err != nil {
		return clientTimeout
	}
	return s.end.Sub(s.due)
}

func (s *sample) ttfb() time.Duration {
	if s.err != nil {
		return clientTimeout
	}
	return s.first.Sub(s.due)
}

// clientTimeout bounds one request, so a hung one fails the run instead
// of stalling it.
const clientTimeout = 30 * time.Second

// client sends /v1/query requests over at most conns keep-alive
// connections and checks every response against the oracle.
type client struct {
	base string
	hc   *http.Client
	or   *oracle
	tr   *tracer
	seq  atomic.Uint64
	pool sync.Pool // *[]byte read buffers
}

func newClient(addr string, conns int, or *oracle) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	c := &client{base: "http://" + addr + "/v1/query?doc=auction&q=", hc: &http.Client{Transport: tr, Timeout: clientTimeout}, or: or}
	c.pool.New = func() any { b := make([]byte, 32<<10); return &b }
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send issues expr, due at due, and reads and verifies the whole stream.
// With traced set it records the request's spans.
func (c *client) send(expr string, due time.Time, traced bool) sample {
	s := sample{expr: expr, due: due}
	want, ok := c.or.answers[expr]
	if !ok {
		s.err = fmt.Errorf("no oracle answer for %s", expr)
		return s
	}
	id := fmt.Sprintf("pb%d", c.seq.Add(1))
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, c.base+url.QueryEscape(expr), nil)
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set(serve.RequestHeader, id)
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { s.first = time.Now() },
	}))
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if qw := resp.Header.Get(serve.QueueWaitHeader); qw != "" {
		s.queueWait, _ = time.ParseDuration(qw)
	}
	bp := c.pool.Get().(*[]byte)
	defer c.pool.Put(bp)
	var chk streamCheck
	for {
		n, rerr := resp.Body.Read(*bp)
		chk.feed((*bp)[:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.err = rerr
			break
		}
	}
	s.end = time.Now()
	s.nodes, s.bytes = chk.got.Count, chk.bytes
	switch {
	case s.err != nil:
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.rejected = true
		s.err = fmt.Errorf("rejected: HTTP %d", resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, chk.errLine)
	default:
		if verr := chk.verify(want); verr != nil {
			s.err = fmt.Errorf("wrong result: %w", verr)
		}
	}
	if s.err != nil {
		s.err = fmt.Errorf("%s: %w", expr, s.err)
	}
	if traced {
		parent := c.tr.id()
		c.tr.record(parent, 0, "serve.request", id, s.due, s.end)
		c.tr.record(0, parent, "load.client_queue", id, s.due, s.sent)
		if !s.first.IsZero() {
			c.tr.record(0, parent, "serve.first_byte", id, s.sent, s.first)
			c.tr.record(0, parent, "serve.stream", id, s.first, s.end)
		}
	}
	return s
}

// openLoop sends exprs[i] at start+offsets[i] over conns connections.
// A request waits for a free connection when both are busy, and its
// latency still counts from its due time. lateness records how late the
// generator woke for each request it sent on time.
func (c *client) openLoop(exprs []string, offsets []time.Duration, conns int, traced bool) (samples []sample, lateness []time.Duration) {
	samples = make([]sample, len(exprs))
	late := make([]time.Duration, len(exprs))
	woke := make([]bool, len(exprs))
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(exprs) {
					return
				}
				due := start.Add(offsets[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					late[i], woke[i] = time.Since(due), true
				}
				samples[i] = c.send(exprs[i], due, traced)
			}
		}()
	}
	wg.Wait()
	for i, ok := range woke {
		if ok {
			lateness = append(lateness, late[i])
		}
	}
	return samples, lateness
}

// closedLoop keeps conns requests outstanding with no think time for
// dur, sending what draw returns, and returns the completed requests
// and the time they took. draw must be safe for concurrent use.
func (c *client) closedLoop(draw func() string, conns int, dur time.Duration, traced bool) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(stop) {
				mine = append(mine, c.send(draw(), time.Now(), traced))
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// failures counts failed samples and keeps the first few errors.
func failures(samples []sample, keep *[]error) int {
	n := 0
	for i := range samples {
		if err := samples[i].err; err != nil {
			n++
			if len(*keep) < 5 {
				*keep = append(*keep, err)
			}
		}
	}
	return n
}
