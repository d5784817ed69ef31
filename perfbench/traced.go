package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"progressdb"
	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
)

// traceDir is where the traced run writes its spans, relative to the
// root of the source tree.
const traceDir = ".bench_build/perfbench"

// The server probe streams probeMains cycles and then runs lookups until
// it has probeLookups of them, enough for a p99 with ten samples beyond.
const (
	probeMains   = 5
	probeLookups = 100 * minBeyond
)

// rawRunner runs a workload's main query on the rawEngine, calling each
// layer itself so that the tracer can time every boundary. The gate's
// lookup goes to the end-to-end engine's progressd.
type rawRunner struct {
	e   *rawEngine
	srv *servedRunner
}

func (w *rawRunner) close() {}

func (w *rawRunner) counters() map[string]float64 { return counters(w.e.reg.Snapshot()) }

// execSQL parses, plans, decomposes and runs sql with the indicator
// attached, as progressdb.DB does, recording one span per layer.
func (w *rawRunner) execSQL(sql, class string, keepRows bool, tr *tracer, onFirst func()) ([]tuple.Tuple, []core.Snapshot, error) {
	marks := []time.Time{time.Now()}
	st, err := sqlparser.ParseStatement(sql)
	marks = append(marks, time.Now())
	if err != nil {
		return nil, nil, err
	}
	p, err := optimizer.Plan(w.e.cat, st.Select, optimizer.Options{WorkMemPages: workMemPages})
	marks = append(marks, time.Now())
	if err != nil {
		return nil, nil, err
	}
	d := segment.Decompose(p, workMemPages)
	marks = append(marks, time.Now())

	w.e.clock.Sync()
	clk := w.e.group.Worker()
	defer clk.Sync()
	ind := core.New(clk, d, core.Options{Refine: w.e.refin})
	if onFirst != nil {
		ind.Subscribe(func(core.Snapshot) { onFirst() })
	}
	ind.Start()
	defer ind.Stop()
	env := &exec.Env{Pool: w.e.pool, Clock: clk, WorkMemPages: workMemPages, Reporter: ind, Decomp: d, Met: w.e.exec}
	var rows []tuple.Tuple
	var sink func(tuple.Tuple) error
	if keepRows {
		sink = func(t tuple.Tuple) error { rows = append(rows, t.Clone()); return nil }
	}
	_, err = exec.Run(env, p, sink)
	marks = append(marks, time.Now())
	if err != nil {
		return nil, nil, err
	}
	tr.query(class, []string{"sqlparser.parse", "optimizer.plan", "segment.decompose", "exec.run"}, marks)
	return rows, ind.Snapshots(), nil
}

func publicRows(rows []tuple.Tuple) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		out[i] = make([]interface{}, len(r))
		for j, v := range r {
			out[i][j] = valueOf(v)
		}
	}
	return out
}

func reports(snaps []core.Snapshot) []progressdb.Report {
	out := make([]progressdb.Report, len(snaps))
	for i, s := range snaps {
		out[i] = progressdb.Report{ElapsedSeconds: s.Elapsed, DoneU: s.DoneU, Percent: s.Percent,
			RemainingSeconds: s.RemainingSeconds, Finished: s.Finished}
	}
	return out
}

func (w *rawRunner) gate(ctx context.Context, want rowSum) (reference, error) {
	var ref reference
	rows, snaps, err := w.execSQL(w.e.spec.mainSQL(), "gate", true, nil, nil)
	if err == nil {
		err = checkRows(publicRows(rows), want)
	}
	if err != nil {
		return ref, fmt.Errorf("traced gate Q%d: %w", w.e.spec.mainQuery, err)
	}
	ref.mainDoneU = finalDoneU(reports(snaps))
	ref.lookupDoneU, err = w.srv.gateLookup(ctx)
	return ref, err
}

func (w *rawRunner) cycle(ctx context.Context, keys *keyGen, ref reference, t *tally, tr *tracer) {
	t.attempted++
	if err := w.e.coldRestart(); err != nil {
		t.fail(fmt.Errorf("cold restart: %w", err))
		return
	}
	before := w.counters()
	start := time.Now()
	var first time.Duration = -1
	_, snaps, err := w.execSQL(w.e.spec.mainSQL(), "main", false, tr, func() {
		if first < 0 {
			first = time.Since(start)
		}
	})
	ms := sinceMS(start)
	h := reports(snaps)
	if err == nil {
		err = checkHistory(h, ref.mainDoneU)
	}
	if err != nil {
		t.fail(fmt.Errorf("traced Q%d: %w", w.e.spec.mainQuery, err))
	} else {
		t.query.Add(ms)
		t.first.Add(float64(first.Nanoseconds()) / 1e6)
		t.countMain(before, w.counters())
	}
}

// gcCPU reads the Go runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runTraced runs the workload's main phase untraced for one half and
// traced for the other, then probes each layer directly.
func runTraced(s spec, seed int64, d time.Duration) (result, error) {
	ctx := context.Background()
	p, err := prepare(ctx, s, seed, 1)
	if err != nil {
		return result{}, err
	}
	defer p.w.close()
	attempted, failed := 0, 0
	note := func(t *tally, what string) {
		attempted += t.attempted
		failed += t.failed
		if t.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", what, t.firstFailure)
		}
	}

	gc0, cpu0 := gcCPU()
	half := s.mainPhase(d) / 2
	plain := measure(ctx, p.w, p.keys, p.ref, half, nil, nil)
	gc1, cpu1 := gcCPU()
	note(plain.t, "untraced phase")

	raw, err := openRaw(s)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var traced phase
	var before, after map[string]float64
	var srv *servedRunner
	if s.served {
		srv = p.w.(*servedRunner)
		before = srv.counters()
		traced = measure(ctx, srv, newKeyGen(seed, s.orders()), p.ref, half, tr, nil)
		after = srv.counters()
	} else {
		srv = p.w.(*embeddedRunner).srv
		raw.enableMetrics()
		w := &rawRunner{e: raw, srv: srv}
		ref, err := w.gate(ctx, p.want)
		if err != nil {
			return result{}, err
		}
		if ref != p.ref {
			return result{}, fmt.Errorf("traced engine ends at DoneU %+v, the end-to-end engine at %+v", ref, p.ref)
		}
		before = w.counters()
		traced = measure(ctx, w, newKeyGen(seed, s.orders()), p.ref, half, tr, nil)
		after = w.counters()
	}
	note(traced.t, "traced phase")
	srvTally := serverProbe(ctx, srv, seed, p.ref)
	note(srvTally, "server probe")

	lp, err := probeLayers(raw, s, seed)
	if err != nil {
		return result{}, err
	}
	concErr, err := concurrentRemainingErr(ctx, p.db, s, 3)
	if err != nil {
		return result{}, err
	}

	tt := traced.t
	per := tt.perMain
	delta := func(name string) float64 {
		v, ok := after[name]
		if !ok {
			tt.missing = append(tt.missing, name)
		}
		return v - before[name]
	}
	hits, misses := delta("bufferpool_hits_total"), delta("bufferpool_misses_total")
	plainP50, err := plain.t.query.Percentile(0.5)
	if err != nil {
		return result{}, err
	}
	tracedP50, err := tt.query.Percentile(0.5)
	if err != nil {
		return result{}, err
	}
	lookupP99, err := srvTally.lookup.Percentile(0.99)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{
		"sqlparser.parse_us":                {lp.parseUS, "us"},
		"optimizer.plan_us":                 {lp.planUS, "us"},
		"btree.search_us":                   {lp.searchUS, "us"},
		"btree.pages_per_lookup":            {lp.pagesPerSearch, "count"},
		"storage.get_hit_ns":                {lp.hitNS, "ns"},
		"storage.get_miss_ns":               {lp.missNS, "ns"},
		"storage.get_hit_ns.contended":      {lp.contendedNS, "ns"},
		"storage.hit_ratio":                 {hits / max(hits+misses, 1), "ratio"},
		"storage.misses_per_query":          {per("bufferpool_misses_total"), "count"},
		"storage.evictions_per_query":       {per("bufferpool_evictions_total"), "count"},
		"storage.writes_per_query":          {per("disk_seq_writes_total") + per("disk_rand_writes_total"), "count"},
		"tuple.decode_ns":                   {lp.decodeNS, "ns"},
		"tuple.encode_ns":                   {lp.encodeNS, "ns"},
		"tuple.decode_allocs":               {lp.decodeAllocs, "count"},
		"exec.run_ms":                       {lp.runMS, "ms"},
		"exec.rows_out_per_query":           {per("exec_rows_out_total"), "count"},
		"exec.spill_partitions_per_query":   {per("exec_spill_partitions_total"), "count"},
		"core.hook_ns":                      {lp.hookNS, "ns"},
		"core.snapshot_us":                  {lp.snapshotUS, "us"},
		"core.refreshes_per_query":          {per("indicator_refreshes_total"), "count"},
		"core.overhead_pct":                 {lp.overheadPct, "%"},
		"core.overhead_pct.iqr":             {lp.overheadIQR, "%"},
		"core.remaining_err_pct.concurrent": {concErr, "%"},
		"server.submit_ms":                  {median(srvTally.submit.ms), "ms"},
		"server.queue_wait_ms":              {mean(srvTally.queueWait), "ms"},
		"server.events_per_query":           {mean(srvTally.events), "count"},
		"server.lookup_ms.p99":              {lookupP99, "ms"},
		"runtime.gc_cpu_frac":               {(gc1 - gc0) / (cpu1 - cpu0), "ratio"},
		"runtime.gc_cycles_per_query":       {float64(plain.gcCycles) / float64(max(plain.t.ok(), 1)), "count"},
		"trace.overhead_pct":                {100 * (tracedP50 - plainP50) / plainP50, "%"},
	}

	self := tr.selfTimes()
	// The main query's engine work is exec.run in-process, and the stream
	// from start to terminal event through progressd.
	engineSpan := "exec.run"
	if s.served {
		engineSpan = "server.stream"
	}
	attr := attribute(engineSpan, self["main"][engineSpan], tt, lp)
	if len(tt.missing) > 0 {
		return result{}, fmt.Errorf("the engine's registry has no %v", tt.missing)
	}
	path, err := tr.write(traceDir, s.name, seed)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	if b, err := json.Marshal(map[string]interface{}{
		"spans": path, "span_count": len(tr.spans), "self_us": self, "attribution_us": attr,
	}); err == nil {
		fmt.Println(string(b))
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// attribute splits the self time of the main query's engine span by
// count × unit cost: pool hits and misses, tuple decodes and indicator
// hooks for every row a scan produced, and refreshes. The remainder is
// work the probes do not price.
func attribute(span string, selfUS float64, t *tally, lp layerProbes) map[string]float64 {
	per := t.perMain
	scanned := per("exec_rows_out_total{seqscan}")
	a := map[string]float64{
		span:      selfUS,
		"storage": (per("bufferpool_hits_total")*lp.hitNS + per("bufferpool_misses_total")*lp.missNS) / 1e3,
		"tuple":   scanned * lp.decodeNS / 1e3,
		"core":    scanned*lp.hookNS/1e3 + per("indicator_refreshes_total")*lp.snapshotUS,
	}
	a["unattributed"] = selfUS - a["storage"] - a["tuple"] - a["core"]
	return a
}

// serverProbe drives the workload's progressd: probeMains whole cycles,
// for the streamed main query's figures, then lookups up to probeLookups.
func serverProbe(ctx context.Context, w *servedRunner, seed int64, ref reference) *tally {
	t := newTally()
	keys := newKeyGen(seed, w.spec.orders())
	tr := newTracer() // makes the cycle fetch each query's queue wait
	for i := 0; i < probeMains; i++ {
		w.cycle(ctx, keys, ref, t, tr)
	}
	for t.lookup.N() < probeLookups && t.failed == 0 {
		w.timedLookup(ctx, keys.next(), ref, t, tr)
	}
	return t
}

// concurrentRemainingErr runs n pairs of the main query side by side on
// one engine and returns the mean remaining-time error over all of them.
func concurrentRemainingErr(ctx context.Context, db *progressdb.DB, s spec, n int) (float64, error) {
	var errs []float64
	for i := 0; i < n; i++ {
		var wg sync.WaitGroup
		res := make([]*progressdb.Result, 2)
		fails := make([]error, 2)
		for j := range res {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				res[j], fails[j] = db.ExecDiscardContext(ctx, s.mainSQL(), nil)
			}(j)
		}
		wg.Wait()
		for j, r := range res {
			if fails[j] != nil {
				return 0, fmt.Errorf("concurrent Q%d: %w", s.mainQuery, fails[j])
			}
			// A scan that trails its twin through a shared pool can hit
			// on every page and finish before its first refresh; it has
			// no estimate to score.
			if len(r.History) < 2 {
				continue
			}
			e, err := historyErr(r.History)
			if err != nil {
				return 0, fmt.Errorf("concurrent Q%d: %w", s.mainQuery, err)
			}
			errs = append(errs, e)
		}
	}
	if len(errs) == 0 {
		return 0, fmt.Errorf("concurrent Q%d: no query refreshed before finishing", s.mainQuery)
	}
	return mean(errs), nil
}

// planFor compiles the workload's main query on the raw engine.
func planFor(e *rawEngine, sql string) (plan.Node, error) {
	st, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return optimizer.Plan(e.cat, st.Select, optimizer.Options{WorkMemPages: workMemPages})
}
