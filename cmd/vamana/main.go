// Command vamana is the VAMANA XPath engine's command-line interface.
//
//	vamana load  -db site.vam -name auction auction.xml
//	vamana query -db site.vam -doc auction [-opt] '//person/address'
//	vamana query -xml auction.xml '//person/address'
//	vamana explain -db site.vam -doc auction '//person/address'
//	vamana stats -db site.vam -doc auction [-name person] [-text 'Yung Flach']
//	vamana docs  -db site.vam
//	vamana verify -db site.vam
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"vamana"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "load":
		err = cmdLoad(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "docs":
		err = cmdDocs(os.Args[2:])
	case "traces":
		err = cmdTraces(os.Args[2:])
	case "requests":
		err = cmdRequests(os.Args[2:])
	case "cost":
		err = cmdCost(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "vamana: unknown command %q\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vamana:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  vamana load    -db FILE -name NAME XMLFILE   index a document into a database
  vamana query   (-db FILE -doc NAME | -xml XMLFILE) [-opt] [-values] [-limit N]
                 [-timeout DUR] [-max-results N] [-max-pages N] [-max-records N]
                 [-slow DUR] [-trace N] [-flight N] [-trace-out F.json]
                 [-cpuprofile F] [-memprofile F] [-metrics-addr A] [-hold] XPATH
  vamana explain (-db FILE -doc NAME | -xml XMLFILE) [-default] [-analyze]
                 [-cpuprofile F] [-memprofile F] [-metrics-addr A] XPATH
  vamana stats   -db FILE -doc NAME [-name ELEM] [-text VALUE]
  vamana docs    -db FILE
  vamana traces  -addr HOST:PORT [-n N] [-chrome F.json]
                                               dump a serving process's flight recorder
  vamana requests -addr HOST:PORT [-slow] [-json]
                                               dump a vamanad's recent/slow request rings
  vamana cost    -addr HOST:PORT [-json]       dump a serving process's cost-model
                                               observatory (q-error profiles)
  vamana verify  -db FILE                      checksum every page of a database
`)
	os.Exit(2)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	name := fs.String("name", "", "document name (defaults to the file path)")
	fs.Parse(args)
	if *dbPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("load needs -db and one XML file")
	}
	xmlPath := fs.Arg(0)
	if *name == "" {
		*name = xmlPath
	}
	db, err := vamana.Open(vamana.Options{Path: *dbPath})
	if err != nil {
		return err
	}
	defer db.Close()
	f, err := os.Open(xmlPath)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := db.LoadXML(*name, f)
	if err != nil {
		return err
	}
	st, err := doc.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("indexed %q: %d nodes, %d elements, %d text nodes\n", *name, st.Nodes, st.Elements, st.Texts)
	return nil
}

// openDoc resolves the (-db,-doc) or (-xml) source into a document. A
// non-nil obsFlags threads the slow-query/trace settings into the open
// options and starts the metrics endpoint.
func openDoc(dbPath, docName, xmlPath string, of *obsFlags) (*vamana.DB, *vamana.Document, error) {
	open := func(opts vamana.Options) (*vamana.DB, error) {
		if of != nil {
			opts = of.apply(opts)
		}
		db, err := vamana.Open(opts)
		if err == nil && of != nil {
			of.serveMetrics(db)
		}
		return db, err
	}
	switch {
	case xmlPath != "":
		db, err := open(vamana.Options{})
		if err != nil {
			return nil, nil, err
		}
		f, err := os.Open(xmlPath)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		defer f.Close()
		doc, err := db.LoadXML(xmlPath, f)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, doc, nil
	case dbPath != "" && docName != "":
		db, err := open(vamana.Options{Path: dbPath})
		if err != nil {
			return nil, nil, err
		}
		doc, err := db.Document(docName)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, doc, nil
	default:
		return nil, nil, fmt.Errorf("need either -xml FILE or -db FILE -doc NAME")
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	docName := fs.String("doc", "", "document name")
	xmlPath := fs.String("xml", "", "query an XML file directly (ephemeral in-memory index)")
	optimized := fs.Bool("opt", true, "run the cost-driven optimizer")
	values := fs.Bool("values", false, "print each result's string-value")
	limit := fs.Int("limit", 0, "stop after N results (0 = all)")
	timeout := fs.Duration("timeout", 0, "kill the query after this wall-clock time (0 = none)")
	maxResults := fs.Uint64("max-results", 0, "fail the query past N results (0 = unlimited)")
	maxPages := fs.Uint64("max-pages", 0, "fail the query past N index pages read (0 = unlimited)")
	maxRecords := fs.Uint64("max-records", 0, "fail the query past N records decoded (0 = unlimited)")
	hold := fs.Bool("hold", false, "after the query, keep serving -metrics-addr until interrupted")
	var of obsFlags
	of.register(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs exactly one XPath expression")
	}
	stop, err := of.start()
	if err != nil {
		return err
	}
	defer stop()
	db, doc, err := openDoc(*dbPath, *docName, *xmlPath, &of)
	if err != nil {
		return err
	}
	defer db.Close()

	// Ctrl-C cancels the running query through its context; the engine
	// stops mid-stream and reports vamana.ErrCanceled.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	opts := []vamana.QueryOption{
		vamana.WithTimeout(*timeout),
		vamana.WithMaxResults(*maxResults),
		vamana.WithMaxPagesRead(*maxPages),
		vamana.WithMaxDecodedRecords(*maxRecords),
	}

	var res *vamana.Results
	if *optimized {
		// The serving path: plan cache, latency histogram, slow-query log.
		res, err = db.QueryContext(ctx, doc, fs.Arg(0), opts...)
	} else {
		var q *vamana.Query
		q, err = db.Prepare(fs.Arg(0), vamana.WithoutOptimization(), vamana.WithoutCache())
		if err != nil {
			return err
		}
		res, err = q.Run(ctx, doc, opts...)
	}
	if err != nil {
		return err
	}
	n := 0
	for node, err := range res.All() {
		if err != nil {
			return err
		}
		if *values {
			sv, err := res.StringValue()
			if err != nil {
				return err
			}
			fmt.Printf("%s\t%s\t%s\t%s\n", node.Key, node.Kind, node.Name, sv)
		} else {
			fmt.Printf("%s\t%s\t%s\n", node.Key, node.Kind, node.Name)
		}
		n++
		if *limit > 0 && n >= *limit {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "%d result(s)\n", n)
	of.writeTraceOut()
	if *hold && of.metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "serving %s until interrupt\n", of.metricsAddr)
		<-ctx.Done()
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	docName := fs.String("doc", "", "document name")
	xmlPath := fs.String("xml", "", "explain against an XML file directly")
	deflt := fs.Bool("default", false, "show the default (unoptimized) plan instead")
	analyze := fs.Bool("analyze", false, "execute the query and include actual per-operator tuple counts")
	var of obsFlags
	of.register(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain needs exactly one XPath expression")
	}
	stop, err := of.start()
	if err != nil {
		return err
	}
	defer stop()
	db, doc, err := openDoc(*dbPath, *docName, *xmlPath, &of)
	if err != nil {
		return err
	}
	defer db.Close()

	var q *vamana.Query
	if *deflt {
		q, err = db.Prepare(fs.Arg(0), vamana.WithoutOptimization(), vamana.WithoutCache())
	} else {
		q, err = db.Prepare(fs.Arg(0), vamana.WithDocument(doc), vamana.WithoutCache())
	}
	if err != nil {
		return err
	}
	var out string
	if *analyze {
		out, err = q.ExplainAnalyze(doc)
	} else {
		out, err = q.Explain(doc)
	}
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	docName := fs.String("doc", "", "document name")
	xmlPath := fs.String("xml", "", "stat an XML file directly")
	elem := fs.String("name", "", "count elements with this name (COUNT probe)")
	text := fs.String("text", "", "count text nodes with this value (TC probe)")
	fs.Parse(args)
	db, doc, err := openDoc(*dbPath, *docName, *xmlPath, nil)
	if err != nil {
		return err
	}
	defer db.Close()

	st, err := doc.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("document %q: %d nodes, %d elements, %d text nodes\n", doc.Name(), st.Nodes, st.Elements, st.Texts)
	if *elem != "" {
		n, err := doc.CountName(*elem)
		if err != nil {
			return err
		}
		fmt.Printf("COUNT(%s) = %d\n", *elem, n)
	}
	if *text != "" {
		n, err := doc.TextCount(*text)
		if err != nil {
			return err
		}
		fmt.Printf("TC(%q) = %d\n", *text, n)
	}
	return nil
}

func cmdDocs(args []string) error {
	fs := flag.NewFlagSet("docs", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("docs needs -db")
	}
	db, err := vamana.Open(vamana.Options{Path: *dbPath})
	if err != nil {
		return err
	}
	defer db.Close()
	for _, name := range db.Documents() {
		fmt.Println(name)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("verify needs -db")
	}
	// VerifyFile sweeps at the page layer, below the document catalog, so
	// a store too damaged to open as a database still gets its corrupt
	// page ids reported (only torn page-layer metadata is fatal).
	checked, corrupt, err := vamana.VerifyFile(*dbPath)
	if err != nil {
		return err
	}
	if len(corrupt) > 0 {
		for _, id := range corrupt {
			fmt.Printf("page %d: checksum mismatch\n", id)
		}
		return fmt.Errorf("%d of %d page(s) corrupt", len(corrupt), checked)
	}
	fmt.Printf("%d page(s) verified, no corruption\n", checked)
	return nil
}
