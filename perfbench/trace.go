package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vamana"
)

// span is one timed call the benchmark made into a layer of the program:
// the layer-qualified name of the call, its interval relative to the
// start of the run, the span that caused it, and the request it served.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent's own interval is known.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent uint64, name, req string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layers aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += time.Duration(s.End - s.Start)
		r.Self += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %9d %12.3f %12.3f %10.2f\n", r.Name, r.Count, ms(r.Total), ms(r.Self), us(r.Self)/float64(r.Count))
	}
}

// opClasses are the operator classes exec.op_self_share reports, so the
// metric set is the same on every workload. Axis steps are classed by
// axis; the value-index axes (value, attr-value, num-range) share one
// class.
var opClasses = []string{
	"root", "join", "pred", "literal",
	"child", "descendant", "descendant-or-self", "parent", "ancestor",
	"self", "following-sibling", "attribute", "value-index", "other",
}

// opClass maps an engine span to its class. Axis labels read
// "φ<id> <axis>::<test>".
func opClass(s *vamana.Span) string {
	switch s.Kind {
	case "root", "join", "pred", "literal":
		return s.Kind
	case "axis":
		label := s.Name
		if i := strings.IndexByte(label, ' '); i >= 0 {
			label = label[i+1:]
		}
		axis, _, _ := strings.Cut(label, "::")
		switch axis {
		case "value", "attr-value", "num-range":
			return "value-index"
		case "ancestor-or-self":
			return "ancestor"
		case "child", "descendant", "descendant-or-self", "parent", "ancestor", "self", "following-sibling", "attribute":
			return axis
		}
	}
	return "other"
}

// opSelf accumulates engine operator self time, by class, from flight
// recorder traces. Serve-layer spans grafted above the engine root are
// skipped; their engine subtree is walked.
type opSelf struct {
	seen   map[uint64]bool
	self   map[string]int64
	traces int
	pages  uint64
	recs   uint64
}

func newOpSelf() *opSelf { return &opSelf{seen: map[uint64]bool{}, self: map[string]int64{}} }

// add folds every trace not seen before.
func (o *opSelf) add(traces []*vamana.QueryTrace) {
	for _, t := range traces {
		if o.seen[t.ID] || t.Root == nil {
			continue
		}
		o.seen[t.ID] = true
		o.traces++
		o.pages += t.PagesRead
		o.recs += t.RecordsDecoded
		o.walk(t.Root)
	}
}

func (o *opSelf) walk(s *vamana.Span) {
	if s.Kind != "serve" {
		ivs := make([][2]int64, 0, len(s.Children))
		for _, c := range s.Children {
			ivs = append(ivs, [2]int64{c.StartNS, c.EndNS})
		}
		o.self[opClass(s)] += s.EndNS - s.StartNS - covered(s.StartNS, s.EndNS, ivs)
	}
	for _, c := range s.Children {
		o.walk(c)
	}
}

// shares returns each class's share of total engine self time.
func (o *opSelf) shares() map[string]float64 {
	var total int64
	for _, v := range o.self {
		total += v
	}
	out := make(map[string]float64, len(opClasses))
	for _, c := range opClasses {
		if total > 0 {
			out[c] = float64(o.self[c]) / float64(total)
		} else {
			out[c] = 0
		}
	}
	return out
}
