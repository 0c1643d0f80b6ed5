package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"vamana"
)

// targets are the nodes the writer's transactions touch, found by query
// after set-up: every watches element (all non-empty in XMark) and the
// text node of every bid increase.
type targets struct {
	watches   []string
	increases []string
	auctions  int
}

func findTargets(db *vamana.DB, doc *vamana.Document) (targets, error) {
	var t targets
	var err error
	keys := func(expr string) []string {
		if err != nil {
			return nil
		}
		var q *vamana.Query
		if q, err = db.Prepare(expr, vamana.WithDocument(doc)); err != nil {
			return nil
		}
		var res *vamana.Results
		if res, err = q.Run(context.Background(), doc, vamana.Ordered()); err != nil {
			return nil
		}
		var out []string
		out, err = res.Keys()
		return out
	}
	t.watches = keys("//watches")
	t.increases = keys("//increase/text()")
	t.auctions = len(keys("//open_auction"))
	if err == nil && (len(t.watches) == 0 || len(t.increases) == 0 || t.auctions == 0) {
		err = fmt.Errorf("document has no watches, increases or open auctions")
	}
	return t, err
}

// ack is what one acknowledged transaction changed.
type ack struct {
	inserted, attr, attrValue string
	deleted                   string
	text, textValue           string
}

// commitRec times one DB.Update: the whole call and the part spent
// inside the transaction function.
type commitRec struct {
	total, apply time.Duration
}

// writer commits the update-mix transaction: insert a watch under a
// person's watches, update one bid increase, delete the watch the
// previous transaction inserted. Q1-Q5 results are invariant under it
// and the document keeps its size.
type writer struct {
	db  *vamana.DB
	doc *vamana.Document
	t   targets
	rng *rand.Rand
	tr  *tracer

	mu      sync.Mutex
	last    string // watch inserted by the latest acknowledged commit
	acks    []ack
	commits []commitRec
	errs    []error
}

func newWriter(db *vamana.DB, doc *vamana.Document, t targets, seed int64, tr *tracer) *writer {
	return &writer{db: db, doc: doc, t: t, rng: rand.New(rand.NewPCG(uint64(seed), streamWriter)), tr: tr}
}

// commitOne runs one transaction. Only the writer's goroutine calls it.
func (w *writer) commitOne() {
	var a ack
	parent := w.watchesPick()
	a.attrValue = fmt.Sprintf("open_auction%d", w.rng.IntN(w.t.auctions))
	a.text = w.t.increases[w.rng.IntN(len(w.t.increases))]
	a.textValue = fmt.Sprintf("%d.%02d", 1+w.rng.IntN(20), w.rng.IntN(100))
	a.deleted = w.last

	id := w.tr.id()
	var a0, a1 time.Time
	t0 := time.Now()
	err := w.db.Update(func(tx *vamana.Txn) error {
		a0 = time.Now()
		defer func() { a1 = time.Now() }()
		var err error
		if a.inserted, err = tx.InsertElement(w.doc, parent, -1, "watch"); err != nil {
			return err
		}
		if a.attr, err = tx.InsertAttribute(w.doc, a.inserted, "open_auction", a.attrValue); err != nil {
			return err
		}
		if err = tx.UpdateText(w.doc, a.text, a.textValue); err != nil {
			return err
		}
		if a.deleted != "" {
			return tx.DeleteSubtree(w.doc, a.deleted)
		}
		return nil
	})
	t1 := time.Now()
	w.tr.record(id, 0, "core.update", "", t0, t1)
	w.tr.record(0, id, "mass.txn_apply", "", a0, a1)

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.errs = append(w.errs, err)
		return
	}
	w.last = a.inserted
	w.acks = append(w.acks, a)
	w.commits = append(w.commits, commitRec{total: t1.Sub(t0), apply: a1.Sub(a0)})
}

func (w *writer) watchesPick() string { return w.t.watches[w.rng.IntN(len(w.t.watches))] }

// run commits at rate per second, on a fixed schedule, until stop closes.
func (w *writer) run(rate float64, stop <-chan struct{}) {
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		w.commitOne()
	}
}

// snapshot returns copies of what the writer has recorded so far.
func (w *writer) snapshot() ([]ack, []commitRec, []error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]ack(nil), w.acks...), append([]commitRec(nil), w.commits...), append([]error(nil), w.errs...)
}

// checkAcks verifies, on a reopened store, that every acknowledged
// insert, delete and text update is reflected. Keys are replayed in
// commit order: a deleted watch's key may be handed out again by a later
// insert under the same parent.
func checkAcks(doc *vamana.Document, acks []ack) error {
	type watch struct {
		present         bool
		attr, attrValue string
	}
	watches := make(map[string]watch)
	text := make(map[string]string)
	for _, a := range acks {
		if a.deleted != "" {
			watches[a.deleted] = watch{}
		}
		watches[a.inserted] = watch{true, a.attr, a.attrValue}
		text[a.text] = a.textValue
	}
	for k, w := range watches {
		n, ok, err := doc.Node(k)
		if err != nil {
			return err
		}
		if !w.present {
			if ok {
				return fmt.Errorf("deleted watch %s is still present", k)
			}
			continue
		}
		if !ok || n.Name != "watch" {
			return fmt.Errorf("inserted watch %s is missing", k)
		}
		at, ok, err := doc.Node(w.attr)
		if err != nil {
			return err
		}
		if !ok || at.Value != w.attrValue {
			return fmt.Errorf("attribute %s of watch %s: got %q, want %q", w.attr, k, at.Value, w.attrValue)
		}
	}
	for k, v := range text {
		n, ok, err := doc.Node(k)
		if err != nil {
			return err
		}
		if !ok || n.Value != v {
			return fmt.Errorf("text %s: got %q, want %q", k, n.Value, v)
		}
	}
	return nil
}
