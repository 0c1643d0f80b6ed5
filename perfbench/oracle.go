package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"vamana/internal/baseline/dom"
)

// answer is the oracle's expected result for one expression: the number
// of result nodes and an order-independent hash of their wire lines.
// The server streams results in pipeline order, so the check compares
// the multiset of lines, not their sequence.
type answer struct {
	Count int
	Sum   uint64
}

func lineHash(line []byte) uint64 {
	h := fnv.New64a()
	h.Write(line)
	return h.Sum64()
}

// add folds one result line (without its newline) into the answer.
func (a *answer) add(line []byte) {
	a.Count++
	a.Sum += lineHash(line)
}

// wireLine renders a DOM node as the NDJSON line the server sends for
// it: fixed field order, JSON string escaping of '"', '\' and control
// characters (see the serve package's wire protocol).
func wireLine(dst []byte, n *dom.Node) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendJSONString(dst, string(n.Key))
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, n.Kind.String())
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, n.Name)
	dst = append(dst, `,"value":`...)
	dst = appendJSONString(dst, n.Value)
	return append(dst, '}')
}

func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

func answerOf(nodes []*dom.Node) answer {
	var a answer
	var line []byte
	for _, n := range nodes {
		line = wireLine(line[:0], n)
		a.add(line)
	}
	return a
}

// lookup is a literal-lookup template: Format with one %s for the
// literal. The oracle evaluates Base — the same path without the
// predicate — once over the DOM and files each result under the literal
// Key reads off the node the predicate filtered.
type lookup struct {
	Format string
	Base   string
	Key    func(result *dom.Node) string
}

// lookups are the adhoc-cold templates, drawn from the document's own
// ID and value spaces.
var lookups = []lookup{
	{"//person[@id='%s']/name", "//person/name", parentAttr("id")},
	{"//item[@id='%s']/name", "//item/name", parentAttr("id")},
	{"//open_auction[@id='%s']/current", "//open_auction/current", parentAttr("id")},
	{"//item[location='%s']/name", "//item/name", parentChild("location")},
}

func parentAttr(name string) func(*dom.Node) string {
	return func(n *dom.Node) string {
		for _, a := range n.Parent.Attrs {
			if a.Name == name {
				return a.Value
			}
		}
		return ""
	}
}

func parentChild(name string) func(*dom.Node) string {
	return func(n *dom.Node) string {
		for _, c := range n.Parent.Children {
			if c.Name == name {
				return c.StringValue()
			}
		}
		return ""
	}
}

// oracle holds the expected answer of every expression a run can send,
// plus each lookup template's value space in document order.
type oracle struct {
	answers map[string]answer
	values  [][]string // per lookups entry
}

// newOracle evaluates the fixed expressions and, when withLookups is
// set, every lookup template over the DOM. One literal per template is
// also evaluated directly as written, so the filing by key is itself
// checked against the DOM evaluator.
func newOracle(d *dom.Document, fixed []string, withLookups bool) (*oracle, error) {
	e := dom.New(d, dom.Options{})
	o := &oracle{answers: make(map[string]answer)}
	for _, x := range fixed {
		ns, err := e.Eval(x)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", x, err)
		}
		o.answers[x] = answerOf(ns)
	}
	if !withLookups {
		return o, nil
	}
	var line []byte
	for _, l := range lookups {
		ns, err := e.Eval(l.Base)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", l.Base, err)
		}
		var vals []string
		for _, n := range ns {
			k := l.Key(n)
			if k == "" || strings.ContainsRune(k, '\'') {
				continue
			}
			x := fmt.Sprintf(l.Format, k)
			a, ok := o.answers[x]
			if !ok {
				vals = append(vals, k)
			}
			line = wireLine(line[:0], n)
			a.add(line)
			o.answers[x] = a
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("oracle: template %s has no values", l.Format)
		}
		o.values = append(o.values, vals)
		x := fmt.Sprintf(l.Format, vals[len(vals)/2])
		ns, err = e.Eval(x)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", x, err)
		}
		if got := answerOf(ns); got != o.answers[x] {
			return nil, fmt.Errorf("oracle: filing of %s disagrees with evaluating %s (%d vs %d nodes)", l.Base, x, o.answers[x].Count, got.Count)
		}
	}
	return o, nil
}

// streamCheck consumes a /v1/query NDJSON body and accumulates what the
// oracle compares: result lines, their hash, the terminal line.
type streamCheck struct {
	got     answer
	done    bool
	count   int
	errLine string
	bytes   int
	partial []byte
}

func (c *streamCheck) feed(p []byte) {
	c.bytes += len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.partial = append(c.partial, p...)
			return
		}
		line := p[:i]
		if len(c.partial) > 0 {
			c.partial = append(c.partial, line...)
			line = c.partial
		}
		c.line(line)
		c.partial = c.partial[:0]
		p = p[i+1:]
	}
}

func (c *streamCheck) line(l []byte) {
	switch {
	case bytes.HasPrefix(l, []byte(`{"key":`)):
		c.got.add(l)
	case bytes.HasPrefix(l, []byte(`{"done":true,"count":`)):
		n, err := strconv.Atoi(string(bytes.TrimSuffix(l[len(`{"done":true,"count":`):], []byte("}"))))
		c.done, c.count = err == nil, n
	default:
		c.errLine = string(l)
	}
}

// verify reports why the stream differs from want, or nil.
func (c *streamCheck) verify(want answer) error {
	switch {
	case c.errLine != "":
		return fmt.Errorf("stream error line %q", c.errLine)
	case len(c.partial) > 0:
		return fmt.Errorf("truncated stream")
	case !c.done:
		return fmt.Errorf("no terminal line")
	case c.count != c.got.Count:
		return fmt.Errorf("terminal count %d, streamed %d nodes", c.count, c.got.Count)
	case c.got.Count != want.Count:
		return fmt.Errorf("%d nodes, oracle has %d", c.got.Count, want.Count)
	case c.got.Sum != want.Sum:
		return fmt.Errorf("result lines differ from the oracle's")
	}
	return nil
}
