// Valuesearch: demonstrates VAMANA's value index — exact-match text
// lookups answered in a single index probe, and the exact, always-current
// statistics (COUNT / TC) the cost model is built on. Compare the probe
// counts with what a histogram-based system would have to maintain under
// updates.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vamana"
	"vamana/internal/xmark"
)

func main() {
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(4 << 20), Seed: 99})
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %.1f MB\n\n", float64(len(src))/(1<<20))

	// Exact statistics, straight from the counted B+-trees. Each probe
	// is two root-to-leaf descents — no scan, no histogram, no staleness.
	for _, name := range []string{"person", "item", "address", "province", "watch", "bidder"} {
		t0 := time.Now()
		n, err := doc.CountName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("COUNT(%-9s) = %6d   (probe took %v)\n", name, n, time.Since(t0).Round(time.Microsecond))
	}
	fmt.Println()
	for _, v := range []string{"Vermont", "Monroe", "United States", "Yung Flach", "no such value"} {
		t0 := time.Now()
		n, err := doc.TextCount(v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("TC(%-15q) = %5d   (probe took %v)\n", v, n, time.Since(t0).Round(time.Microsecond))
	}

	// A value-driven query: the optimizer sees TC("Vermont") and drives
	// the whole plan from the value index.
	expr := "//province[text()='Vermont']/ancestor::person"
	q, err := db.Prepare(expr, vamana.WithDocument(doc))
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for range res.AllKeys() {
		n++
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n  -> %d persons in %v\n", expr, n, time.Since(t0).Round(time.Microsecond))
}
