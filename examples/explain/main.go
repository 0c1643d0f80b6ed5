// Explain: shows the cost-driven optimizer at work on the paper's running
// examples. For each query it prints the default physical plan with its
// cost annotations (COUNT / TC / IN / OUT / δ), the optimized plan, and
// the rewrite decisions the optimizer took — the textual equivalent of
// the paper's Figures 6-11.
package main

import (
	"fmt"
	"log"

	"vamana"
	"vamana/internal/xmark"
)

func main() {
	src := xmark.GenerateString(xmark.Config{Factor: 0.01, Seed: 42})
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// Q1 of the running example (§III): cleaned up by self-merging,
		// then rewritten twice (parent inversion + child push-down).
		"descendant::name/parent::*/self::person/address",
		// Q2 of the running example: the value predicate becomes a
		// value:: index step.
		"//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress",
		// The duplicate-eliminating ancestor rewrite (§VIII, Q2).
		"//watches/watch/ancestor::person",
	}

	for _, expr := range queries {
		fmt.Println("============================================================")
		def, err := db.Prepare(expr, vamana.WithoutOptimization())
		if err != nil {
			log.Fatal(err)
		}
		out, err := def.Explain(doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("---- default plan (VQP) ----")
		fmt.Print(out)

		opt, err := db.Prepare(expr, vamana.WithDocument(doc))
		if err != nil {
			log.Fatal(err)
		}
		out, err = opt.Explain(doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("---- optimized plan (VQP-OPT) ----")
		fmt.Print(out)
		fmt.Println()
	}
}
