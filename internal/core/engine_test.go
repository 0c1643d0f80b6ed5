package core

import (
	"context"
	"strings"
	"testing"

	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/xmark"
)

func openEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestCompileExecutePipeline(t *testing.T) {
	e := openEngine(t)
	src := xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 81})
	d, err := e.LoadString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("//person/name")
	if err != nil {
		t.Fatal(err)
	}
	if q.Optimized() {
		t.Fatal("Compile produced an optimized query")
	}
	it, err := runFrom(q, d, "")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := it.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := xmark.CountsFor(0.002).Persons
	if len(keys) != want {
		t.Fatalf("names = %d, want %d", len(keys), want)
	}

	qo, err := e.CompileOptimized(d, "//person/name")
	if err != nil {
		t.Fatal(err)
	}
	if !qo.Optimized() {
		t.Fatal("CompileOptimized not marked optimized")
	}
	it2, _ := runFrom(qo, d, "")
	keys2, err := it2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys2) != len(keys) {
		t.Fatalf("optimized result = %d, default = %d", len(keys2), len(keys))
	}
}

func TestQueryReusableAcrossExecutions(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><x/><x/></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("//x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		it, err := runFrom(q, d, "")
		if err != nil {
			t.Fatal(err)
		}
		keys, err := it.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 2 {
			t.Fatalf("run %d: %d results", i, len(keys))
		}
	}
}

func TestExecuteFromContext(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><a><x/></a><b><x/><x/></b></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := e.Compile("//b")
	it, _ := runFrom(q, d, "")
	keys, _ := it.Collect()
	if len(keys) != 1 {
		t.Fatal("setup failed")
	}
	rel, err := e.Compile("x")
	if err != nil {
		t.Fatal(err)
	}
	it2, err := runFrom(rel, d, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	sub, err := it2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("x under b = %d, want 2", len(sub))
	}
}

func TestExplainAndTrace(t *testing.T) {
	e := openEngine(t)
	src := xmark.GenerateString(xmark.Config{Factor: 0.003, Seed: 82})
	d, err := e.LoadString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.CompileOptimized(d, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Trace()) == 0 {
		t.Error("no optimizer trace for a rewritable query")
	}
	out, err := q.Explain(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query:", "rewrite:", "δ="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
	if q.Plan() == nil || q.Expr() == "" {
		t.Error("plan/expr accessors broken")
	}
}

func TestEstimateOnly(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><x>1</x></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := e.Compile("//x")
	p, err := q.Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Root.Cost.Done {
		t.Fatal("Estimate did not annotate the returned plan")
	}
	if q.Plan().Root.Cost.Done {
		t.Fatal("Estimate mutated the query's shared plan")
	}
	_ = flex.Root
}

func TestCompileErrorsPropagate(t *testing.T) {
	e := openEngine(t)
	if _, err := e.Compile("//["); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := e.Compile("3 * 4"); err == nil {
		t.Error("non-node-set expression compiled")
	}
}

// runFrom runs q on the live store from the initial context node start
// ("" for the document root).
func runFrom(q *Query, d mass.DocID, start flex.Key) (*exec.Iterator, error) {
	return q.RunContext(context.Background(), nil, d, start, nil, false, govern.Limits{})
}
