// Command pvcrun evaluates the paper's running-example queries (Figure 1)
// or the TPC-H experiment queries on generated data — or any PVQL query
// you type — printing the result pvc-table with annotations, the
// tractability classification, the chosen execution strategy, and the
// probability of every answer tuple.
//
// Usage:
//
//	pvcrun -demo shop  -p 0.5               # Figure 1 database, queries Q1/Q2
//	pvcrun -demo tpch  -sf 0.001            # TPC-H Q1 and Q2
//	pvcrun -demo tpch  -sf 0.001 -parallel 0   # parallel probability step (GOMAXPROCS)
//	pvcrun -demo shop  -mode anytime -eps 0.01 # anytime bounds of width ≤ 0.01
//	pvcrun -demo shop  -mode auto              # Classify routes each query
//	pvcrun -demo shop  -mode sample -seed 42   # seeded Monte Carlo estimation
//	pvcrun -demo tpch  -timeout 5s             # cancel runaway compilations
//
//	# one PVQL query against the demo database:
//	pvcrun -demo shop -query "SELECT shop, COUNT(*) AS n FROM S GROUP BY shop"
//
//	# interactive PVQL REPL over the demo database:
//	pvcrun -demo shop -repl
//
//	# query a disk-backed database written by pvcimport (block scans with
//	# zone-map skipping; datasets larger than RAM):
//	pvcrun -store /data/tpch01 -query "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"
//	pvcrun -store /data/tpch01 -repl
//
//	# observability: print the execution trace, or a per-operator
//	# EXPLAIN / EXPLAIN ANALYZE plan tree
//	pvcrun -demo shop -trace -query "SELECT shop, COUNT(*) AS n FROM S GROUP BY shop"
//	pvcrun -demo shop -query "EXPLAIN ANALYZE SELECT shop, COUNT(*) AS n FROM S GROUP BY shop"
//
// Disk-backed queries additionally print the scan's I/O summary (blocks
// read vs skipped) and, when retries engaged, the retry budget's work.
//
// The sample mode requires -seed: the engine has no ambient randomness,
// so every estimate is reproducible from the logged seed. Ctrl-C cancels
// the in-flight compilations cleanly. In the REPL, Ctrl-C is scoped to
// the running query: the first interrupt aborts it — printing the tuples
// already computed (for an anytime query, their sound bounds) — and
// returns to the prompt; a second interrupt while it winds down exits.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"pvcagg"
	"pvcagg/internal/tpch"
)

func main() {
	var (
		demo     = flag.String("demo", "shop", "demo database: shop or tpch")
		p        = flag.Float64("p", 0.5, "tuple marginal probability (shop demo)")
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor (tpch demo)")
		parallel = flag.Int("parallel", 1, "probability-step parallelism (0 = GOMAXPROCS, 1 = sequential)")
		mode     = flag.String("mode", "auto", "execution strategy: auto, exact, anytime or sample")
		eps      = flag.Float64("eps", 0, "anytime confidence-bound width (anytime/auto modes)")
		seed     = flag.Int64("seed", 0, "Monte Carlo seed (required by -mode sample; estimates are reproducible from it)")
		timeout  = flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = none)")
		query    = flag.String("query", "", "run one PVQL query against the demo database and exit")
		repl     = flag.Bool("repl", false, "interactive PVQL prompt over the demo database")
		storeDir = flag.String("store", "", "open a disk-backed database written by pvcimport instead of a -demo database")
		trace    = flag.Bool("trace", false, "record and print the execution trace (spans with wall time, allocations and stage counters)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	opts, err := execOptions(*mode, *eps, *parallel, *timeout, *seed, seedSet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvcrun:", err)
		os.Exit(2)
	}
	var db *pvcagg.Database
	var st *pvcagg.Store
	if *storeDir != "" {
		st, err = pvcagg.OpenStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		db = st.DB()
		// Disk-backed runs get the default retry budget so transient read
		// blips heal silently and the per-query summary can report what
		// the retries actually did.
		opts = append(opts, pvcagg.WithRetry(pvcagg.RetryPolicy{}))
		if *query == "" && !*repl {
			// No query to run: describe the store and point at -query/-repl.
			fmt.Printf("store %s (epoch %d):\n", *storeDir, st.Epoch())
			listTables(db)
			fmt.Println("use -query or -repl to run PVQL against it")
			return
		}
	} else {
		switch *demo {
		case "shop":
			db = shopDB(*p)
		case "tpch":
			db, err = tpch.Generate(tpch.Config{SF: *sf, Seed: 1, Probabilistic: true})
			if err != nil {
				fatal(err)
			}
		default:
			fmt.Fprintf(os.Stderr, "pvcrun: unknown demo %q\n", *demo)
			os.Exit(2)
		}
	}
	switch {
	case *query != "":
		if err := runQuery(ctx, db, *query, opts, true, *trace, st); err != nil {
			fatal(err)
		}
	case *repl:
		// Release the process-wide handler: the REPL scopes SIGINT to the
		// query it is running, so Ctrl-C must not cancel a shared context.
		stop()
		runREPL(db, opts, *trace, st)
	case *demo == "shop":
		runShop(ctx, db, opts)
	default:
		runTPCH(ctx, db, opts)
	}
}

// execOptions translates the flags into Exec options.
func execOptions(mode string, eps float64, parallel int, timeout time.Duration, seed int64, seedSet bool) ([]pvcagg.Option, error) {
	opts := []pvcagg.Option{pvcagg.WithParallelism(parallel)}
	switch mode {
	case "auto":
		opts = append(opts, pvcagg.WithMode(pvcagg.Auto))
	case "exact":
		opts = append(opts, pvcagg.WithMode(pvcagg.Exact))
	case "anytime":
		opts = append(opts, pvcagg.WithMode(pvcagg.Anytime))
	case "sample":
		if !seedSet {
			return nil, errors.New("-mode sample requires an explicit -seed (no ambient randomness; estimates must be reproducible)")
		}
		opts = append(opts, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(seed))
	default:
		return nil, fmt.Errorf("unknown mode %q (want auto, exact, anytime or sample)", mode)
	}
	if seedSet && mode != "sample" {
		return nil, fmt.Errorf("-seed only applies to -mode sample (mode %q has no sampling step)", mode)
	}
	if eps > 0 {
		opts = append(opts, pvcagg.WithEps(eps))
	}
	if timeout > 0 {
		opts = append(opts, pvcagg.WithTimeout(timeout))
	}
	return opts, nil
}

// runQuery compiles and executes one PVQL query, printing the optimized
// plan, its classification, the strategy and every answer. An EXPLAIN
// prefix prints the estimated plan tree without executing; EXPLAIN
// ANALYZE executes and prints estimates next to per-operator actuals.
// With trace, the execution trace is printed after the summary; with a
// store, so are the scan's I/O and retry counters.
func runQuery(ctx context.Context, db *pvcagg.Database, src string, opts []pvcagg.Option, verbose, trace bool, st *pvcagg.Store) error {
	plan, explain, err := pvcagg.ParseQueryExplain(db, src)
	if err != nil {
		var qe *pvcagg.QueryError
		if errors.As(err, &qe) {
			return fmt.Errorf("%s", qe.Render(src))
		}
		return err
	}
	fmt.Printf("   plan: %s\n", plan)
	if explain == pvcagg.ExplainPlan {
		fmt.Print(indent(pvcagg.Explain(db, plan).Render()))
		return nil
	}
	fmt.Printf("   class: %v\n", pvcagg.Classify(plan, db))
	// The three-index append keeps per-query options (a fresh trace, the
	// analyze decorators) out of the caller's shared slice.
	opts = opts[:len(opts):len(opts)]
	if explain == pvcagg.ExplainAnalyze {
		opts = append(opts, pvcagg.WithExplainAnalyze())
	}
	var tr *pvcagg.Trace
	if trace {
		tr = pvcagg.NewTrace()
		opts = append(opts, pvcagg.WithTrace(tr))
	}
	var before pvcagg.StoreMetrics
	if st != nil {
		before = st.Metrics()
	}
	res, err := pvcagg.Exec(ctx, db, plan, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("   strategy: %v\n", res.Strategy)
	if err := printResult(res, verbose); err != nil {
		return err
	}
	fmt.Printf("   %d answer tuples; ⟦·⟧ %v, P(·) %v\n", res.Len(), res.Timing.Construct, res.Timing.Probability)
	if res.Report.Explain != nil {
		fmt.Print(indent(res.Report.Explain.Render()))
	}
	if st != nil {
		m, r := st.Metrics(), res.Report.Store
		fmt.Printf("   store: blocks read=%d skipped=%d, bytes read=%d skipped=%d, rows=%d\n",
			m.BlocksRead-before.BlocksRead, m.BlocksSkipped-before.BlocksSkipped,
			m.BytesRead-before.BytesRead, m.BytesSkipped-before.BytesSkipped,
			m.RowsRead-before.RowsRead)
		if r.Attempts > 0 || r.BoundedBlocks > 0 {
			fmt.Printf("   retries: reads retried=%d retries spent=%d exhausted=%d bounded skips=%d\n",
				r.Attempts, r.Retries, r.Exhausted, r.BoundedBlocks)
		}
	}
	if tr != nil {
		fmt.Print(indent(tr.Render()))
	}
	return nil
}

// indent shifts a multi-line rendering under the three-space summary
// margin.
func indent(s string) string {
	s = strings.TrimRight(s, "\n")
	return "   " + strings.ReplaceAll(s, "\n", "\n   ") + "\n"
}

// runREPL reads PVQL queries from stdin, one per line, until EOF or \q.
// SIGINT is scoped per query: the first Ctrl-C cancels the in-flight
// query (its partial results are printed) and the loop returns to the
// prompt; a second Ctrl-C before the query winds down exits the shell.
func runREPL(db *pvcagg.Database, opts []pvcagg.Option, trace bool, st *pvcagg.Store) {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	fmt.Println("PVQL interactive shell — one query per line.")
	fmt.Println(`  \t lists tables, \q quits, Ctrl-C cancels the running query. Example: SELECT * FROM ` + firstTable(db))
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("pvql> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\t`:
			listTables(db)
			continue
		}
		// Drop any interrupt delivered while idling at the prompt so it
		// cannot cancel the next query before it starts.
		select {
		case <-sigs:
		default:
		}
		qctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			select {
			case <-sigs:
				fmt.Fprintln(os.Stderr, "^C — cancelling query (Ctrl-C again to exit)")
				cancel()
				select {
				case <-sigs:
					os.Exit(130)
				case <-done:
				}
			case <-done:
			}
		}()
		err := runQuery(qctx, db, line, opts, true, trace, st)
		close(done)
		cancel()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "query cancelled")
			} else {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
}

// listTables prints every table with its schema — in-memory relations
// with their tuple counts, disk-backed provider tables without (counting
// would scan them).
func listTables(db *pvcagg.Database) {
	for _, name := range db.Names() {
		schema, err := db.Schema(name)
		if err != nil {
			continue
		}
		cols := make([]string, len(schema))
		for i, c := range schema {
			cols[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
		}
		if rel, err := db.Relation(name); err == nil {
			fmt.Printf("  %s(%s) — %d tuples\n", name, strings.Join(cols, ", "), rel.Len())
		} else {
			fmt.Printf("  %s(%s) — on disk\n", name, strings.Join(cols, ", "))
		}
	}
}

func firstTable(db *pvcagg.Database) string {
	if names := db.Names(); len(names) > 0 {
		return names[0]
	}
	return "R"
}

// confString renders an exact confidence as a number and anytime bounds as
// an interval.
func confString(b pvcagg.Bounds) string {
	if b.Lo == b.Hi {
		return fmt.Sprintf("%.6g", b.Lo)
	}
	return b.String()
}

// printResult runs step II of an Exec result and prints every answer
// tuple with its confidence and, when present, the expectation of the
// first aggregation column. It consumes the result as a stream, so a
// cancelled run (REPL Ctrl-C) still prints the tuples that finished —
// for an anytime query, their sound bounds — before reporting the
// cancellation.
func printResult(res *pvcagg.Result, verbose bool) error {
	var outs []pvcagg.TupleOutcome
	var firstErr error
	for o, err := range res.Results() {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		outs = append(outs, o)
	}
	// The stream yields in completion order; restore tuple order.
	sort.Slice(outs, func(i, j int) bool { return outs[i].Index < outs[j].Index })
	if firstErr != nil && len(outs) > 0 {
		fmt.Printf("   (partial: %d of %d tuples computed)\n", len(outs), res.Len())
	}
	for i, o := range outs {
		if !verbose && i >= 8 {
			fmt.Printf("   … %d more\n", len(outs)-i)
			break
		}
		fmt.Printf("   P[%v] = %s", cellsOf(o.Tuple), confString(o.Confidence))
		if len(o.AggDists) > 0 {
			fmt.Printf("  E[agg] = %.6g", o.AggDists[0].Expectation())
		}
		fmt.Println()
	}
	return firstErr
}

func runShop(ctx context.Context, db *pvcagg.Database, opts []pvcagg.Option) {
	q1 := &pvcagg.Project{
		Cols: []string{"shop", "price"},
		Input: &pvcagg.Join{
			L: &pvcagg.Join{L: &pvcagg.Scan{Table: "S"}, R: &pvcagg.Scan{Table: "PS"}},
			R: &pvcagg.Union{L: &pvcagg.Scan{Table: "P1"}, R: &pvcagg.Scan{Table: "P2"}},
		},
	}
	q2 := &pvcagg.Project{
		Cols: []string{"shop"},
		Input: &pvcagg.Select{
			Pred: pvcagg.Where(pvcagg.ColTheta("P", pvcagg.LE, pvcagg.IntCell(50))),
			Input: &pvcagg.GroupAgg{
				Input:   q1,
				GroupBy: []string{"shop"},
				Aggs:    []pvcagg.AggSpec{{Out: "P", Agg: pvcagg.MAX, Over: "price"}},
			},
		},
	}
	for _, q := range []struct {
		name string
		plan pvcagg.Plan
	}{{"Q1", q1}, {"Q2", q2}} {
		fmt.Printf("== %s = %s\n", q.name, q.plan)
		fmt.Printf("   class: %v\n", pvcagg.Classify(q.plan, db))
		res, err := pvcagg.Exec(ctx, db, q.plan, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("   strategy: %v\n", res.Strategy)
		fmt.Println(res.Rel)
		if err := printResult(res, true); err != nil {
			fatal(err)
		}
		fmt.Printf("   ⟦·⟧ %v, P(·) %v\n\n", res.Timing.Construct, res.Timing.Probability)
	}
}

func runTPCH(ctx context.Context, db *pvcagg.Database, opts []pvcagg.Option) {
	for _, q := range []struct {
		name string
		plan pvcagg.Plan
	}{
		{"TPC-H Q1", tpch.Q1(1200)},
		{"TPC-H Q2", tpch.Q2(1, "AFRICA")},
	} {
		fmt.Printf("== %s\n", q.name)
		res, err := pvcagg.Exec(ctx, db, q.plan, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("   strategy: %v\n", res.Strategy)
		if err := printResult(res, false); err != nil {
			fatal(err)
		}
		fmt.Printf("   %d answer tuples; ⟦·⟧ %v, P(·) %v\n\n",
			res.Len(), res.Timing.Construct, res.Timing.Probability)
	}
}

func shopDB(p float64) *pvcagg.Database {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	s := pvcagg.NewRelation("S", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "shop", Type: pvcagg.TString},
	})
	shops := []string{"M&S", "M&S", "M&S", "Gap", "Gap"}
	for i, shop := range shops {
		db.Registry.DeclareBool(fmt.Sprintf("x%d", i+1), p)
		s.MustInsert(pvcagg.MustParseExpr(fmt.Sprintf("x%d", i+1)),
			pvcagg.IntCell(int64(i+1)), pvcagg.StringCell(shop))
	}
	db.Add(s)
	ps := pvcagg.NewRelation("PS", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "price", Type: pvcagg.TValue},
	})
	for _, row := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		v := fmt.Sprintf("y%d%d", row[0], row[1])
		db.Registry.DeclareBool(v, p)
		ps.MustInsert(pvcagg.MustParseExpr(v),
			pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]), pvcagg.IntCell(row[2]))
	}
	db.Add(ps)
	p1 := pvcagg.NewRelation("P1", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	for i, row := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		v := fmt.Sprintf("z%d", i+1)
		db.Registry.DeclareBool(v, p)
		p1.MustInsert(pvcagg.MustParseExpr(v), pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]))
	}
	db.Add(p1)
	p2 := pvcagg.NewRelation("P2", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	db.Registry.DeclareBool("z5", p)
	p2.MustInsert(pvcagg.MustParseExpr("z5"), pvcagg.IntCell(1), pvcagg.IntCell(5))
	db.Add(p2)
	return db
}

func cellsOf(t pvcagg.Tuple) string {
	out := "⟨"
	for i, c := range t.Cells {
		if i > 0 {
			out += ", "
		}
		out += c.String()
	}
	return out + "⟩"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pvcrun:", err)
	os.Exit(1)
}
