package vamana_test

// TestServeObsOverheadGate bounds the cost of full request
// observability on the serving hot path: the client-observed p95 of the
// cached paper query Q1 over loopback HTTP against a daemon with
// request IDs, SLO histograms, an access log, and request rings all on
// must stay within 1.02x of the same daemon with request observability
// disabled. Everything the feature adds per request — ID resolution,
// header echoes, two histogram observations, the NDJSON log line, two
// ring inserts — lives inside that 2%.
//
// Two servers share one DB (same plan cache, same pages); each round
// alternates them query by query so machine noise lands on both sides;
// best-of-rounds p95 (see gateSpecs).

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vamana"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

func TestServeObsOverheadGate(t *testing.T) {
	g := vamana.StartGate(t, "serve_obs")
	const (
		q1              = "//person/address" // the paper's Q1
		queriesPerRound = 120
	)

	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("auction",
		xmark.GenerateString(xmark.Config{Factor: 0.02, Seed: 51})); err != nil {
		t.Fatal(err)
	}

	newServer := func(disableObs bool) string {
		cfg := serve.Config{DB: db, DisableRequestObs: disableObs}
		if !disableObs {
			// The full stack: access log (discarded — the write path runs,
			// the sink is free), default rings, default slow threshold.
			cfg.AccessLog = io.Discard
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL + "/v1/query?doc=auction&q=" + q1
	}
	obsURL := newServer(false)
	offURL := newServer(true)
	client := &http.Client{}

	drain := func(url string) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	// Warm both servers: plan cache, probe memo, HTTP connections.
	for i := 0; i < 5; i++ {
		drain(obsURL)
		drain(offURL)
	}

	vamana.RunGate(g, t, func(int) (off, on float64) {
		onLats := make([]time.Duration, 0, queriesPerRound)
		offLats := make([]time.Duration, 0, queriesPerRound)
		for i := 0; i < queriesPerRound; i++ {
			begin := time.Now()
			drain(obsURL)
			onLats = append(onLats, time.Since(begin))
			begin = time.Now()
			drain(offURL)
			offLats = append(offLats, time.Since(begin))
		}
		return vamana.P95(offLats), vamana.P95(onLats)
	})
}
