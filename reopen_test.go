package vamana

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"vamana/internal/baseline/dom"
	"vamana/internal/xmark"
)

// TestReopenMatchesOracle loads an XMark document into a file store,
// closes and reopens it, and checks a value-predicate query against the
// DOM oracle. The seed's description text fills leaves with 1-2 KiB
// inline values, which is what drove a skewed leaf split past the page
// size and left a truncated page to be read back after the reopen.
func TestReopenMatchesOracle(t *testing.T) {
	src := xmark.GenerateString(xmark.Config{Factor: 0.05, Seed: 301})
	path := filepath.Join(t.TempDir(), "reopen.vam")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("auction", src); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.Document("auction")
	if err != nil {
		t.Fatal(err)
	}

	oracleDoc, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	oracle := dom.New(oracleDoc, dom.Options{})
	for _, expr := range []string{
		"//item[location='Germany']/name",
		"//person/address",
		"//open_auction/bidder/increase",
	} {
		nodes, err := oracle.Eval(expr)
		if err != nil {
			t.Fatalf("%s: oracle: %v", expr, err)
		}
		want := dom.Keys(nodes)
		q, err := db.Prepare(expr, WithDocument(doc))
		if err != nil {
			t.Fatalf("%s: prepare: %v", expr, err)
		}
		res, err := q.Run(context.Background(), doc, Ordered())
		if err != nil {
			t.Fatalf("%s: run: %v", expr, err)
		}
		got, err := res.Keys()
		if err != nil {
			t.Fatalf("%s: stream after reopen: %v", expr, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle returned nothing; the check is vacuous", expr)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: %d results after reopen, oracle %d", expr, len(got), len(want))
		}
	}
}
