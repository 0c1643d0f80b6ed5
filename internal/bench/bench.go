// Package bench is the experiment harness for the paper's evaluation
// (§VIII): it generates XMark documents at the study's sizes, loads them
// into each engine, runs the five workload queries and reports execution
// times. cmd/vbench prints the figure series; the repository-root
// benchmarks time the same runs under testing.B.
package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"vamana/internal/baseline/dom"
	"vamana/internal/baseline/galax"
	"vamana/internal/baseline/pathjoin"
	"vamana/internal/core"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/xmark"
)

// Query is one workload query of the experimental study.
type Query struct {
	ID    string // "Q1".."Q5"
	Fig   string // the figure it reproduces
	XPath string
}

// Queries are the five queries of §VIII, covering major forward and
// reverse axes and predicate expressions.
var Queries = []Query{
	{ID: "Q1", Fig: "Fig12", XPath: "//person/address"},
	{ID: "Q2", Fig: "Fig13", XPath: "//watches/watch/ancestor::person"},
	{ID: "Q3", Fig: "Fig14", XPath: "/descendant::name/parent::*/self::person/address"},
	{ID: "Q4", Fig: "Fig15", XPath: "//itemref/following-sibling::price/parent::*"},
	{ID: "Q5", Fig: "Fig16", XPath: "//province[text()='Vermont']/ancestor::person"},
}

// QueryByID resolves a workload query.
func QueryByID(id string) (Query, bool) {
	for _, q := range Queries {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// Engine identifies one of the five engines compared in the study.
type Engine string

// The engines of the study. Galax, Jaxen and eXist are Go
// reimplementations of those systems' evaluation strategies as the paper
// describes them; VQP and VQP-OPT are VAMANA without and with the
// cost-driven optimizer.
const (
	EngineGalax  Engine = "Galax"
	EngineJaxen  Engine = "Jaxen"
	EngineEXist  Engine = "eXist"
	EngineVQP    Engine = "VQP"
	EngineVQPOpt Engine = "VQP-OPT"
)

// AllEngines lists the engines in the paper's chart order.
var AllEngines = []Engine{EngineGalax, EngineJaxen, EngineEXist, EngineVQP, EngineVQPOpt}

// Paper-documented capacity limits (§II, §VIII), applied when a Fixture
// is built with Faithful limits: Jaxen cannot handle documents >= 10 MB,
// eXist cannot store documents >= 20 MB, Galax times out beyond 30 MB.
const (
	JaxenLimitBytes = 10 << 20
	EXistLimitBytes = 20 << 20
	GalaxLimitBytes = 30 << 20
)

// ErrCapacity marks a configuration the original engine could not run, so
// harness output can show the paper's missing data points.
var ErrCapacity = errors.New("bench: document exceeds the engine's published capacity")

// Fixture is one generated document loaded into every engine on demand.
type Fixture struct {
	SizeBytes int
	Seed      int64
	// Faithful applies the published per-engine document-size limits so
	// that chart series stop where the paper's did.
	Faithful bool

	src string

	engine *core.Engine
	doc    mass.DocID

	domEng   *dom.Engine
	galaxEng *galax.Engine
	joinEng  *pathjoin.Engine
}

// NewFixture generates an XMark document of roughly target bytes and
// indexes it in VAMANA. Baseline engines are built lazily on first use.
func NewFixture(target int, seed int64, faithful bool) (*Fixture, error) {
	return NewFixtureExecBatch(target, seed, faithful, 0)
}

// NewFixtureExecBatch is NewFixture with an explicit executor pull-batch
// size for the VAMANA engine (0 = default) — the vbench -batch flag and
// the batch-size sweep use it.
func NewFixtureExecBatch(target int, seed int64, faithful bool, execBatch int) (*Fixture, error) {
	f := &Fixture{SizeBytes: target, Seed: seed, Faithful: faithful}
	f.src = xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(target), Seed: seed})
	var err error
	f.engine, err = core.Open(core.Options{ExecBatch: execBatch})
	if err != nil {
		return nil, err
	}
	f.doc, err = f.engine.LoadString("auction", f.src)
	if err != nil {
		f.engine.Close()
		return nil, err
	}
	return f, nil
}

// Close releases the fixture's stores.
func (f *Fixture) Close() error {
	if f.engine != nil {
		return f.engine.Close()
	}
	return nil
}

// ActualBytes returns the generated document's real size.
func (f *Fixture) ActualBytes() int { return len(f.src) }

// Source exposes the generated XML (e.g. to dump it to disk).
func (f *Fixture) Source() string { return f.src }

// VamanaEngine exposes the underlying engine (for EXPLAIN output).
func (f *Fixture) VamanaEngine() (*core.Engine, mass.DocID) { return f.engine, f.doc }

// Result is one timed query execution.
type Result struct {
	Engine   Engine
	Query    Query
	Size     int
	Count    int           // result cardinality
	Duration time.Duration // execution only; parse/load/optimize excluded
	OptTime  time.Duration // compile+optimize time (VQP-OPT only)
	Err      error         // capacity or axis-support failure
}

// Run executes one query on one engine, timing only query execution (the
// paper records "the total CPU elapsed time used for query execution";
// document loading and engine construction are excluded).
func (f *Fixture) Run(e Engine, q Query) Result {
	r := Result{Engine: e, Query: q, Size: f.SizeBytes}
	switch e {
	case EngineVQP:
		cq, err := f.engine.Compile(q.XPath)
		if err != nil {
			r.Err = err
			return r
		}
		r.Count, r.Duration, r.Err = f.timeVamana(cq)
	case EngineVQPOpt:
		t0 := time.Now()
		cq, err := f.engine.CompileOptimized(f.doc, q.XPath)
		r.OptTime = time.Since(t0)
		if err != nil {
			r.Err = err
			return r
		}
		r.Count, r.Duration, r.Err = f.timeVamana(cq)
	case EngineJaxen:
		if f.Faithful && f.ActualBytes() >= JaxenLimitBytes {
			r.Err = ErrCapacity
			return r
		}
		eng, err := f.jaxen()
		if err != nil {
			r.Err = err
			return r
		}
		t0 := time.Now()
		ns, err := eng.Eval(q.XPath)
		r.Duration, r.Count, r.Err = time.Since(t0), len(ns), err
	case EngineGalax:
		if f.Faithful && f.ActualBytes() >= GalaxLimitBytes {
			r.Err = ErrCapacity
			return r
		}
		eng, err := f.galax()
		if err != nil {
			r.Err = err
			return r
		}
		t0 := time.Now()
		ns, err := eng.Eval(q.XPath)
		r.Duration, r.Count, r.Err = time.Since(t0), len(ns), err
	case EngineEXist:
		if f.Faithful && f.ActualBytes() >= EXistLimitBytes {
			r.Err = ErrCapacity
			return r
		}
		eng, err := f.exist()
		if err != nil {
			r.Err = err
			return r
		}
		t0 := time.Now()
		ns, err := eng.Eval(q.XPath)
		r.Duration, r.Count, r.Err = time.Since(t0), len(ns), err
	default:
		r.Err = fmt.Errorf("bench: unknown engine %q", e)
	}
	return r
}

func (f *Fixture) timeVamana(cq *core.Query) (int, time.Duration, error) {
	t0 := time.Now()
	it, err := cq.RunContext(context.Background(), nil, f.doc, "", nil, false, govern.Limits{})
	if err != nil {
		return 0, 0, err
	}
	n := 0
	for it.Next() {
		n++
	}
	return n, time.Since(t0), it.Err()
}

func (f *Fixture) jaxen() (*dom.Engine, error) {
	if f.domEng == nil {
		doc, err := dom.Parse(strings.NewReader(f.src))
		if err != nil {
			return nil, err
		}
		f.domEng = dom.New(doc, dom.Options{})
	}
	return f.domEng, nil
}

func (f *Fixture) galax() (*galax.Engine, error) {
	if f.galaxEng == nil {
		e, err := galax.New(f.src)
		if err != nil {
			return nil, err
		}
		f.galaxEng = e
	}
	return f.galaxEng, nil
}

func (f *Fixture) exist() (*pathjoin.Engine, error) {
	if f.joinEng == nil {
		limit := 0
		if f.Faithful {
			limit = EXistLimitBytes
		}
		e, err := pathjoin.New(f.src, pathjoin.Options{MaxDocumentBytes: limit})
		if err != nil {
			return nil, err
		}
		f.joinEng = e
	}
	return f.joinEng, nil
}

// Sweep runs every engine on one query across fixtures and returns the
// results grouped per engine — one paper figure.
func Sweep(fixtures []*Fixture, q Query, engines []Engine) []Result {
	var out []Result
	for _, f := range fixtures {
		for _, e := range engines {
			out = append(out, f.Run(e, q))
		}
	}
	return out
}

// FormatFigure renders a figure's results as the paper-style series
// table: one row per document size, one column per engine.
func FormatFigure(q Query, results []Result, engines []Engine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — execution time of %s (%s)\n", q.Fig, q.ID, q.XPath)
	fmt.Fprintf(&b, "%-10s", "size")
	for _, e := range engines {
		fmt.Fprintf(&b, "%14s", e)
	}
	b.WriteString("\n")
	bySize := map[int]map[Engine]Result{}
	var sizes []int
	for _, r := range results {
		if _, ok := bySize[r.Size]; !ok {
			bySize[r.Size] = map[Engine]Result{}
			sizes = append(sizes, r.Size)
		}
		bySize[r.Size][r.Engine] = r
	}
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-10s", fmtSize(size))
		for _, e := range engines {
			r, ok := bySize[size][e]
			switch {
			case !ok:
				fmt.Fprintf(&b, "%14s", "-")
			case errors.Is(r.Err, ErrCapacity):
				fmt.Fprintf(&b, "%14s", "cap")
			case r.Err != nil:
				fmt.Fprintf(&b, "%14s", "n/a")
			default:
				fmt.Fprintf(&b, "%14s", r.Duration.Round(time.Microsecond))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
