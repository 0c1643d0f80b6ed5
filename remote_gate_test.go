package vamana_test

// TestRemoteOverheadGate bounds the serving daemon's tax: the
// client-observed p95 latency of the cached paper query Q1 over real
// HTTP (vamanad's handler on a loopback listener) must stay within a
// fixed multiple of the in-process p95 of the same query on the same
// database. The multiple covers everything the daemon adds — admission
// bookkeeping, tenant resolution, NDJSON encoding, HTTP framing and a
// loopback round trip — and catches regressions anywhere in that stack.
//
// Each round alternates the two paths query by query, so any
// machine-noise burst lands on both sides; best-of-rounds p95 (see
// gateSpecs). External test package: internal/serve imports vamana, so
// an in-package test would cycle.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vamana"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

func TestRemoteOverheadGate(t *testing.T) {
	g := vamana.StartGate(t, "remote")
	const (
		q1              = "//person/address" // the paper's Q1
		queriesPerRound = 120
	)

	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction",
		xmark.GenerateString(xmark.Config{Factor: 0.02, Seed: 51}))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	remoteURL := ts.URL + "/v1/query?doc=auction&q=" + q1

	drainInProcess := func() {
		res, err := db.QueryContext(context.Background(), doc, q1)
		if err != nil {
			t.Fatal(err)
		}
		for res.Next() {
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	}
	drainRemote := func() {
		resp, err := client.Get(remoteURL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("remote status = %d", resp.StatusCode)
		}
	}
	// Warm both paths: plan cache, probe memo, HTTP connection.
	for i := 0; i < 5; i++ {
		drainInProcess()
		drainRemote()
	}

	vamana.RunGate(g, t, func(int) (inProc, remote float64) {
		in := make([]time.Duration, 0, queriesPerRound)
		rem := make([]time.Duration, 0, queriesPerRound)
		for i := 0; i < queriesPerRound; i++ {
			begin := time.Now()
			drainInProcess()
			in = append(in, time.Since(begin))
			begin = time.Now()
			drainRemote()
			rem = append(rem, time.Since(begin))
		}
		return vamana.P95(in), vamana.P95(rem)
	})
}
