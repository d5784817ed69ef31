// Command pgsh is a small interactive shell over the engine: type SPJ
// SQL and watch the progress indicator while it runs.
//
//	$ go run ./cmd/pgsh -scale 0.01
//	pgsh> \tables
//	pgsh> \explain select * from lineitem
//	pgsh> select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey
//
// Commands: \tables, \explain <sql>, \metrics (engine metrics snapshot),
// \cold (empty the buffer pool), \io <start> <end> <factor> / \cpu ...
// (interference), \help, \q. SQL statements may be prefixed with EXPLAIN
// or EXPLAIN ANALYZE.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"progressdb"
)

func main() {
	scale := flag.Float64("scale", 0.01, "paper workload scale (0 = start empty)")
	workMem := flag.Int("workmem", 16, "work_mem in pages")
	update := flag.Float64("update", 10, "progress refresh in virtual seconds")
	maxRows := flag.Int("rows", 10, "result rows to print")
	flag.Parse()

	db := progressdb.Open(progressdb.Config{
		WorkMemPages:          *workMem,
		ProgressUpdateSeconds: *update,
		SeqPageCost:           0.8e-3 / maxf(*scale, 0.01),
		RandPageCost:          6.4e-3 / maxf(*scale, 0.01),
		Metrics:               true,
	})
	if *scale > 0 {
		fmt.Printf("loading paper workload at scale %g ...\n", *scale)
		if err := db.LoadPaperWorkload(*scale, false); err != nil {
			fmt.Fprintln(os.Stderr, "pgsh:", err)
			os.Exit(1)
		}
	}
	fmt.Println(`type SPJ SQL, or \help`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("pgsh> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\q` || line == `\quit`:
			return
		case line == `\help`:
			fmt.Println(`\tables            list tables
\explain <sql>     show plan and segments
\analyze <sql>     same as explain analyze <sql>
\metrics           engine metrics snapshot (Prometheus text format)
\cold              empty the buffer pool
\io <s> <e> <f>    4-arg: I/O interference from s to e (virtual sec), factor f
\cpu <s> <e> <f>   CPU interference
\clear             remove interference
\q                 quit
explain [analyze] <sql>   plan only, or run + annotated plan with actuals
anything else      run as SQL with a live progress indicator`)
		case line == `\tables`:
			for _, q := range []string{"customer", "orders", "lineitem", "customer_subset1", "customer_subset2"} {
				if _, err := db.Explain("select * from " + q); err == nil {
					fmt.Println(" ", q)
				}
			}
		case line == `\metrics`:
			fmt.Print(db.MetricsText())
		case line == `\cold`:
			if err := db.ColdRestart(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("buffer pool cleared")
			}
		case line == `\clear`:
			db.ClearInterference()
			fmt.Println("interference cleared")
		case strings.HasPrefix(line, `\io `) || strings.HasPrefix(line, `\cpu `):
			kind := "io"
			rest := strings.TrimPrefix(line, `\io `)
			if strings.HasPrefix(line, `\cpu `) {
				kind = "cpu"
				rest = strings.TrimPrefix(line, `\cpu `)
			}
			parts := strings.Fields(rest)
			if len(parts) != 3 {
				fmt.Println("usage: \\" + kind + " <start> <end> <factor>")
				continue
			}
			s, err1 := strconv.ParseFloat(parts[0], 64)
			e, err2 := strconv.ParseFloat(parts[1], 64)
			f, err3 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				fmt.Println("bad numbers")
				continue
			}
			if err := db.SetInterference(kind, db.Now()+s, db.Now()+e, f); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s x%g over [now+%g, now+%g]\n", kind, f, s, e)
			}
		case strings.HasPrefix(line, `\explain `):
			out, err := db.Explain(strings.TrimPrefix(line, `\explain `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, `\analyze `) || hasKeywordPrefix(line, "explain", "analyze"):
			res, tree, err := db.ExplainAnalyze(strings.TrimPrefix(line, `\analyze `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(tree)
			fmt.Printf("(%.1f virtual seconds)\n", res.VirtualSeconds)
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown command; try \\help")
		case hasKeywordPrefix(line, "explain"):
			out, err := db.Explain(stripKeywords(line, "explain"))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		default:
			runSQL(db, line, *maxRows)
		}
	}
}

func runSQL(db *progressdb.DB, sql string, maxRows int) {
	res, err := db.Exec(sql, func(r progressdb.Report) {
		fmt.Printf("  ... %5.1f%% done, est %s left (%.0f U at %.0f U/s)\n",
			r.Percent, short(r.RemainingSeconds), r.EstimatedCostU, r.SpeedU)
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		if i >= maxRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("%d rows in %.1f virtual seconds\n", res.RowCount(), res.VirtualSeconds)
}

// hasKeywordPrefix reports whether line starts with the given keywords,
// case-insensitively and whitespace-separated.
func hasKeywordPrefix(line string, kws ...string) bool {
	fields := strings.Fields(line)
	if len(fields) <= len(kws) {
		return false
	}
	for i, kw := range kws {
		if !strings.EqualFold(fields[i], kw) {
			return false
		}
	}
	return true
}

// stripKeywords removes the leading keywords from line, returning the rest.
func stripKeywords(line string, kws ...string) string {
	rest := strings.TrimSpace(line)
	for range kws {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) < 2 {
			return ""
		}
		rest = strings.TrimSpace(fields[1])
	}
	return rest
}

func short(sec float64) string {
	if sec > 1e8 {
		return "?"
	}
	return fmt.Sprintf("%.0fs", sec)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
