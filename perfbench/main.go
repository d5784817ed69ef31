// Command perfbench is progressdb's benchmark. It drives the engine only
// through its public entry points — progressdb.DB, internal/server behind
// net/http/httptest, and the client package — from one closed-loop client,
// checks every result, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload scan-q1 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with tracing and prints the per-layer metrics. --steady N runs
// every workload (or the one named) N times, seeds 1..N, and prints each
// metric's spread. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"progressdb"
)

// setupRepeats is how many times a run builds its engine; setup_s is the
// median of these.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: scan-q1, join-q2 or serve-mix")
	seed := flag.Int64("seed", 1, "seed for the lookup keys")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	steady := flag.Int("steady", 0, "run every workload this many times and print each metric's spread")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*steady, *seconds, *workload, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	s, err := specByName(*workload)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload scan-q1|join-q2|serve-mix, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	hostJSON, err := json.Marshal(map[string]interface{}{"host": hostFacts(s, *seed, *seconds, *traced)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(hostJSON))

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res, err = runTraced(s, *seed, d)
	} else {
		res, err = runEndToEnd(s, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// prepared is a workload's engine after set-up and the correctness gate.
type prepared struct {
	w      runner
	db     *progressdb.DB
	want   rowSum
	ref    reference
	setups []float64 // seconds per set-up
	keys   *keyGen
}

// prepare computes the oracle, builds the engine repeats times (keeping
// the last), passes the gate and runs one untimed warm-up cycle.
func prepare(ctx context.Context, s spec, seed int64, repeats int) (*prepared, error) {
	raw, err := openRaw(s)
	if err != nil {
		return nil, err
	}
	want, err := expected(raw)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if want.Rows != s.rows() {
		return nil, fmt.Errorf("oracle: %d rows, generator cardinality %d", want.Rows, s.rows())
	}
	p := &prepared{want: want, keys: newKeyGen(seed, s.orders())}
	for i := 0; i < repeats; i++ {
		if p.w != nil {
			p.w.close()
			p.w = nil
		}
		runtime.GC()
		start := time.Now()
		w, db, err := newRunner(s)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		p.w, p.db = w, db
	}
	if p.ref, err = p.w.gate(ctx, want); err != nil {
		p.w.close()
		return nil, err
	}
	warm := newTally()
	p.w.cycle(ctx, p.keys, p.ref, warm, nil)
	if warm.failed > 0 {
		p.w.close()
		return nil, fmt.Errorf("warm-up: %w", warm.firstFailure)
	}
	return p, nil
}

// sliceLookups is how many lookups the embedded workloads run between two
// stretches of their main phase: 9 × 200 lookups, about 0.7 s in all.
const sliceLookups = 200

func runEndToEnd(s spec, seed int64, d time.Duration) (result, error) {
	ctx := context.Background()
	p, err := prepare(ctx, s, seed, setupRepeats)
	if err != nil {
		return result{}, err
	}
	defer p.w.close()
	lookups := newTally() // stays empty in serve-mix, whose cycles hold its lookups
	var pause func()
	if e, ok := p.w.(*embeddedRunner); ok {
		pause = lookupSlice(ctx, e.srv, p.keys, p.ref, sliceLookups, lookups)
	}
	ph := measure(ctx, p.w, p.keys, p.ref, s.mainPhase(d), nil, pause)
	t := ph.t
	attempted, failed := 0, 0
	for _, x := range []*tally{t, lookups} {
		attempted += x.attempted
		failed += x.failed
		if x.failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", x.firstFailure)
		}
	}
	if pause == nil {
		lookups = t
	}
	m := map[string]metric{
		"setup_s":            {median(p.setups), "s"},
		"qps":                {float64(t.ok()) / ph.wall, "queries/s"},
		"remaining_err_pct":  {mean(t.remErr), "%"},
		"alloc_mb_per_query": {float64(ph.allocBytes) / 1e6 / float64(max(t.ok(), 1)), "MB"},
		"live_heap_mb":       {float64(ph.liveHeap) / 1e6, "MB"},
		"ok_frac":            {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	var sums []Summary
	for _, c := range []struct {
		class *Class
		qs    []float64
	}{
		{&t.query, []float64{0.5, 0.9}},
		{&lookups.lookup, []float64{0.5, 0.9}},
		{&t.first, []float64{0.5}},
	} {
		sum, err := c.class.Summarize(c.qs...)
		if err != nil {
			return result{}, err
		}
		for _, q := range sum.Quantiles {
			m[fmt.Sprintf("%s_ms.p%g", c.class.Name, 100*q.Q)] = metric{q.Value, "ms"}
		}
		sums = append(sums, sum)
	}
	if b, err := json.Marshal(map[string]interface{}{"percentiles": sums}); err == nil {
		fmt.Println(string(b))
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
