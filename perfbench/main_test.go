package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"vamana"
	"vamana/internal/baseline/dom"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

func smallDoc(t *testing.T, factor float64, seed int64) (string, *dom.Document) {
	t.Helper()
	src := xmark.GenerateString(xmark.Config{Factor: factor, Seed: seed})
	d, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return src, d
}

func TestMixDeterministic(t *testing.T) {
	w, err := workloadByName("adhoc-cold")
	if err != nil {
		t.Fatal(err)
	}
	_, d := smallDoc(t, 0.01, 7)
	o, err := newOracle(d, xpaths(w.Fixed), true)
	if err != nil {
		t.Fatal(err)
	}
	a := newMix(w, o.values, 42, streamOpen).take(500)
	b := newMix(w, o.values, 42, streamOpen).take(500)
	if !slices.Equal(a, b) {
		t.Fatal("same seed drew different requests")
	}
	if c := newMix(w, o.values, 43, streamOpen).take(500); slices.Equal(a, c) {
		t.Fatal("different seeds drew the same requests")
	}
	distinct := make(map[string]bool)
	for _, x := range a {
		if _, ok := o.answers[x]; !ok {
			t.Fatalf("drew %s, which the oracle cannot answer", x)
		}
		distinct[x] = true
	}
	if len(distinct) < 200 {
		t.Fatalf("only %d distinct expressions in 500 draws", len(distinct))
	}
	if !slices.Equal(schedule(100, 50), schedule(100, 50)) || schedule(3, 50)[2] != 40*time.Millisecond {
		t.Fatal("schedule is not a fixed-rate sequence")
	}
}

// body fetches expr from a server over src, as the benchmark's client
// receives it.
func body(t *testing.T, src, expr string) []byte {
	t.Helper()
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("auction", src); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/query?doc=auction&q=" + url.QueryEscape(expr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleCatchesCorruptedResult(t *testing.T) {
	src, d := smallDoc(t, 0.005, 3)
	x := xpathOf("Q1")
	o, err := newOracle(d, []string{x}, false)
	if err != nil {
		t.Fatal(err)
	}
	good := body(t, src, x)
	check := func(b []byte) error {
		var c streamCheck
		// Feed in small pieces, so lines split across reads.
		for len(b) > 0 {
			n := min(len(b), 37)
			c.feed(b[:n])
			b = b[n:]
		}
		return c.verify(o.answers[x])
	}
	if err := check(good); err != nil {
		t.Fatalf("correct stream rejected: %v", err)
	}
	lines := strings.SplitAfter(string(good), "\n")
	if len(lines) < 4 {
		t.Fatalf("stream too short to corrupt: %q", good)
	}
	first := lines[0]
	corrupt := map[string]string{
		"changed key":    strings.Replace(string(good), first, strings.Replace(first, `"key":"a.`, `"key":"b.`, 1), 1),
		"dropped node":   strings.Replace(string(good), first, "", 1),
		"duplicate node": first + string(good),
		"no terminal":    strings.Join(lines[:len(lines)-2], ""),
	}
	for name, b := range corrupt {
		if err := check([]byte(b)); err == nil {
			t.Errorf("%s: corrupted stream passed the oracle check", name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on a small
// document for a second: nothing may fail, and the run must report
// every metric BENCHMARK.json declares, with the declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	units := func(ms []struct{ Name, Unit string }, names []string) map[string]string {
		out := make(map[string]string)
		for i, m := range ms {
			if i >= len(names) || names[i] != m.Name {
				t.Fatalf("BENCHMARK.json metric %d is %s, the benchmark reports %v", i, m.Name, names)
			}
			out[m.Name] = m.Unit
		}
		if len(ms) != len(names) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(ms), len(names))
		}
		return out
	}
	declared := [2]map[string]string{units(spec.EndToEnd, endToEnd), units(spec.PerLayer, perLayer)}
	for _, sw := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: sw.Name, seed: 5, seconds: 1, trace: traced, scale: 0.05,
				dir: t.TempDir(), conns: 2, setups: 1}
			rep, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", sw.Name, traced, rep.failed, rep.attempted, rep.failures)
			}
			res, err := rep.result(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			want := declared[0]
			if traced {
				want = declared[1]
			}
			for name, m := range res.Metrics {
				if m.Unit != want[name] {
					t.Errorf("%s: %s is in %s, BENCHMARK.json says %s", sw.Name, name, m.Unit, want[name])
				}
			}
		}
	}
}
