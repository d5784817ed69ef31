package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/server"
)

// reference is what the correctness gate establishes before timing: the
// final DoneU of each query shape. Every timed query must reproduce it.
type reference struct {
	mainDoneU   float64
	lookupDoneU float64
}

// tally accumulates one timed phase. One client drives the engine, so it
// needs no locking.
type tally struct {
	attempted, failed int
	firstFailure      error

	query  Class // the workload's scan or join, submit to completion
	lookup Class // point lookups, submit to completion
	first  Class // submit to the first progress report of a main query

	remErr    []float64 // remaining-time error of each main query, percent
	events    []float64 // SSE events per streamed main query
	submit    Class     // POST round trip (served only)
	queueWait []float64 // server Started − Submitted, ms (traced runs only)

	// mainSum adds up the engine counters' deltas over mainN main
	// queries (traced runs only). missing lists the counters read that the
	// engine's registry did not hold.
	mainSum map[string]float64
	mainN   int
	missing []string
}

func (t *tally) countMain(before, after map[string]float64) {
	if t.mainSum == nil {
		t.mainSum = map[string]float64{}
	}
	for k, v := range after {
		t.mainSum[k] += v - before[k]
	}
	t.mainN++
}

// perMain is a counter's mean delta per main query. A name the registry
// did not hold is recorded in missing rather than read as 0.
func (t *tally) perMain(name string) float64 {
	v, ok := t.mainSum[name]
	if !ok {
		t.missing = append(t.missing, name)
	}
	return v / float64(max(t.mainN, 1))
}

func newTally() *tally {
	return &tally{
		query:  Class{Name: "query"},
		lookup: Class{Name: "lookup"},
		first:  Class{Name: "first_progress"},
		submit: Class{Name: "submit"},
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstFailure == nil {
		t.firstFailure = err
	}
}

func (t *tally) ok() int { return t.attempted - t.failed }

// runner drives one workload's engine through its public entry point.
type runner interface {
	// gate runs each query shape once, checks its result against the
	// oracle's and returns the figures timed queries must reproduce.
	gate(ctx context.Context, want rowSum) (reference, error)
	// cycle runs one main query and then the spec's lookups, if any.
	cycle(ctx context.Context, keys *keyGen, ref reference, t *tally, tr *tracer)
	close()
}

func newRunner(s spec) (runner, *progressdb.DB, error) {
	db, err := openDB(s, s.served)
	if err != nil {
		return nil, nil, err
	}
	srv := newServed(s, db)
	if s.served {
		return srv, db, nil
	}
	// The embedded workloads serve their lookups through progressd too,
	// between stretches of main queries, so that lookup_ms is the same
	// millisecond-scale figure on every workload. When the server streams
	// a main query (the traced run's server probe) it starts on a cold
	// pool, as the embedded main query does.
	srv.coldMain = true
	return &embeddedRunner{spec: s, db: db, srv: srv}, db, nil
}

// newServed starts progressd's handler over db on a loopback listener.
func newServed(s spec, db *progressdb.DB) *servedRunner {
	srv := server.New(db, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	return &servedRunner{spec: s, db: db, srv: srv, ts: ts, cl: client.New(ts.URL)}
}

// phase is one timed stretch of cycles and what the Go runtime did in it.
type phase struct {
	t          *tally
	wall       float64 // seconds
	allocBytes uint64
	liveHeap   uint64
	gcCycles   uint32
}

// segments is how many stretches measure splits its cycles into.
const segments = 10

// measure runs whole cycles for d of wall time, in segments stretches.
// Between two stretches it calls pause, if set; what pause takes and
// allocates counts in neither wall nor allocBytes.
func measure(ctx context.Context, w runner, keys *keyGen, ref reference, d time.Duration, tr *tracer, pause func()) phase {
	p := phase{t: newTally()}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var wall time.Duration
	for i := 0; i < segments; i++ {
		if i > 0 && pause != nil {
			pause()
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for time.Since(start) < d/segments {
			w.cycle(ctx, keys, ref, p.t, tr)
		}
		wall += time.Since(start)
		runtime.ReadMemStats(&m1)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcCycles += m1.NumGC - m0.NumGC
	}
	p.wall = wall.Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveHeap = m1.HeapAlloc
	return p
}

// remainingErr is the mean, over a query's non-final reports, of
// |estimated − actual remaining| / actual duration, in percent and in
// virtual time. A report with an unknown estimate counts as the whole
// remaining time missed.
func remainingErr(elapsed, remaining []float64, duration float64) (float64, error) {
	if duration <= 0 || len(elapsed) == 0 {
		return 0, fmt.Errorf("no progress refresh before the final report (duration %.3gs)", duration)
	}
	var sum float64
	for i, e := range elapsed {
		actual := duration - e
		est := remaining[i]
		if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
			est = 0
		}
		sum += math.Abs(est-actual) / duration
	}
	return 100 * sum / float64(len(elapsed)), nil
}

// historyErr scores a finished query's report history with remainingErr.
func historyErr(h []progressdb.Report) (float64, error) {
	var el, re []float64
	for _, r := range h[:len(h)-1] {
		el, re = append(el, r.ElapsedSeconds), append(re, r.RemainingSeconds)
	}
	return remainingErr(el, re, h[len(h)-1].ElapsedSeconds)
}

// ---- embedded ---------------------------------------------------------

type embeddedRunner struct {
	spec spec
	db   *progressdb.DB
	srv  *servedRunner // serves the lookups of lookupSlice
}

func (w *embeddedRunner) close() { w.srv.close() }

func finalDoneU(h []progressdb.Report) float64 {
	if len(h) == 0 {
		return math.NaN()
	}
	return h[len(h)-1].DoneU
}

func (w *embeddedRunner) gate(ctx context.Context, want rowSum) (reference, error) {
	var ref reference
	res, err := w.db.ExecContext(ctx, w.spec.mainSQL(), nil)
	if err != nil {
		return ref, fmt.Errorf("gate Q%d: %w", w.spec.mainQuery, err)
	}
	if err := checkRows(res.Rows, want); err != nil {
		return ref, fmt.Errorf("gate Q%d: %w", w.spec.mainQuery, err)
	}
	ref.mainDoneU = finalDoneU(res.History)
	ref.lookupDoneU, err = w.srv.gateLookup(ctx)
	return ref, err
}

func checkRows(rows [][]interface{}, want rowSum) error {
	var got rowSum
	for _, r := range rows {
		got.add(r)
	}
	if got != want {
		return fmt.Errorf("result %d rows, checksum %x; oracle %d rows, checksum %x", got.Rows, got.Sum, want.Rows, want.Sum)
	}
	return nil
}

func checkLookup(rows [][]interface{}, key int64) error {
	if len(rows) != 1 {
		return fmt.Errorf("lookup of orderkey %d returned %d rows", key, len(rows))
	}
	var got float64
	switch v := rows[0][0].(type) {
	case int64:
		got = float64(v)
	case float64:
		got = v
	}
	if got != float64(key) {
		return fmt.Errorf("lookup of orderkey %d returned orderkey %v", key, rows[0][0])
	}
	return nil
}

func checkHistory(h []progressdb.Report, doneU float64) error {
	if len(h) == 0 || !h[len(h)-1].Finished {
		return errors.New("no final progress report")
	}
	for i := 1; i < len(h); i++ {
		if h[i].Percent < h[i-1].Percent {
			return fmt.Errorf("percent fell from %.4g to %.4g", h[i-1].Percent, h[i].Percent)
		}
	}
	if got := finalDoneU(h); got != doneU {
		return fmt.Errorf("final DoneU %.6g, gate had %.6g", got, doneU)
	}
	return nil
}

func (w *embeddedRunner) cycle(ctx context.Context, keys *keyGen, ref reference, t *tally, tr *tracer) {
	t.attempted++
	// Each main query starts on a cold pool, as in the paper, so that its
	// virtual timeline does not depend on which keys the lookups before
	// it touched.
	if err := w.db.ColdRestart(); err != nil {
		t.fail(fmt.Errorf("cold restart: %w", err))
		return
	}
	start := time.Now()
	var first time.Duration = -1
	res, err := w.db.ExecDiscardContext(ctx, w.spec.mainSQL(), func(progressdb.Report) {
		if first < 0 {
			first = time.Since(start)
		}
	})
	ms := sinceMS(start)
	if err == nil {
		err = checkHistory(res.History, ref.mainDoneU)
	}
	var rem float64
	if err == nil {
		rem, err = historyErr(res.History)
	}
	if err != nil {
		t.fail(fmt.Errorf("Q%d: %w", w.spec.mainQuery, err))
	} else {
		t.query.Add(ms)
		t.first.Add(float64(first.Nanoseconds()) / 1e6)
		t.remErr = append(t.remErr, rem)
	}
}

// ---- served -----------------------------------------------------------

type servedRunner struct {
	spec spec
	db   *progressdb.DB
	// coldMain empties the pool before each main query, as the embedded
	// runner does; set when the server fronts an embedded workload's
	// engine.
	coldMain bool
	srv      *server.Server
	ts       *httptest.Server
	cl       *client.Client
}

func (w *servedRunner) counters() map[string]float64 { return counters(w.db.Metrics()) }

func (w *servedRunner) close() {
	w.cl.CloseIdleConnections()
	w.ts.Close()
	w.srv.Close()
}

// streamed is one query submitted to progressd and followed to its
// terminal event.
type streamed struct {
	id        string
	submitMS  float64 // POST round trip
	firstMS   float64 // POST → first event
	totalMS   float64 // POST → terminal event
	submitted time.Time
	events    []client.ProgressEvent
}

func (w *servedRunner) submit(ctx context.Context, req client.SubmitRequest) (streamed, error) {
	var q streamed
	q.submitted = time.Now()
	resp, err := w.cl.Submit(ctx, req)
	if err != nil {
		return q, fmt.Errorf("submit: %w", err)
	}
	q.id = resp.ID
	q.submitMS = sinceMS(q.submitted)
	err = w.cl.Stream(ctx, q.id, func(ev client.ProgressEvent) error {
		if len(q.events) == 0 {
			q.firstMS = sinceMS(q.submitted)
		}
		q.events = append(q.events, ev)
		return nil
	})
	q.totalMS = sinceMS(q.submitted)
	if err != nil {
		return q, fmt.Errorf("stream %s: %w", q.id, err)
	}
	return q, checkStream(q.events)
}

// checkStream requires exactly one terminal event, last, in state done,
// with percent never falling before it.
func checkStream(evs []client.ProgressEvent) error {
	terminals := 0
	for i, ev := range evs {
		if ev.Terminal() {
			terminals++
		}
		if i > 0 && ev.Percent < evs[i-1].Percent {
			return fmt.Errorf("percent fell from %.4g to %.4g", evs[i-1].Percent, ev.Percent)
		}
	}
	if terminals != 1 || !evs[len(evs)-1].Terminal() {
		return fmt.Errorf("%d terminal events in %d", terminals, len(evs))
	}
	if last := evs[len(evs)-1]; last.State != client.StateDone {
		return fmt.Errorf("ended %s: %s", last.State, last.Error)
	}
	return nil
}

func (w *servedRunner) lookup(ctx context.Context, key int64) (streamed, error) {
	q, err := w.submit(ctx, client.SubmitRequest{SQL: lookupSQL(key), KeepRows: true})
	if err != nil {
		return q, err
	}
	res, err := w.cl.Result(ctx, q.id)
	if err != nil {
		return q, fmt.Errorf("result %s: %w", q.id, err)
	}
	return q, checkLookup(res.Rows, key)
}

// queueWait records how long the server held query id before starting it.
func (w *servedRunner) queueWait(ctx context.Context, id string, t *tally) error {
	info, err := w.cl.Get(ctx, id)
	if err != nil {
		return fmt.Errorf("get %s: %w", id, err)
	}
	t.queueWait = append(t.queueWait, float64(info.StartedAtMS-info.SubmittedAtMS))
	return nil
}

func (w *servedRunner) gate(ctx context.Context, want rowSum) (reference, error) {
	var ref reference
	// The rows come from the engine the server fronts: a 120,000-row
	// result is too large to pull through the JSON result endpoint.
	res, err := w.db.ExecContext(ctx, w.spec.mainSQL(), nil)
	if err != nil {
		return ref, fmt.Errorf("gate Q%d: %w", w.spec.mainQuery, err)
	}
	if err := checkRows(res.Rows, want); err != nil {
		return ref, fmt.Errorf("gate Q%d: %w", w.spec.mainQuery, err)
	}
	q, err := w.submit(ctx, client.SubmitRequest{SQL: w.spec.mainSQL()})
	if err != nil {
		return ref, fmt.Errorf("gate streamed Q%d: %w", w.spec.mainQuery, err)
	}
	ref.mainDoneU = q.events[len(q.events)-1].DoneU
	if d := finalDoneU(res.History); d != ref.mainDoneU {
		return ref, fmt.Errorf("gate: streamed Q%d ended at DoneU %.6g, embedded at %.6g", w.spec.mainQuery, ref.mainDoneU, d)
	}
	ref.lookupDoneU, err = w.gateLookup(ctx)
	return ref, err
}

// gateLookup runs the lookup shape once and returns its final DoneU.
func (w *servedRunner) gateLookup(ctx context.Context) (float64, error) {
	q, err := w.lookup(ctx, 0)
	if err != nil {
		return 0, fmt.Errorf("gate lookup: %w", err)
	}
	return q.events[len(q.events)-1].DoneU, nil
}

func (w *servedRunner) cycle(ctx context.Context, keys *keyGen, ref reference, t *tally, tr *tracer) {
	t.attempted++
	var before map[string]float64
	if tr != nil {
		before = w.counters()
	}
	if w.coldMain {
		if err := w.db.ColdRestart(); err != nil {
			t.fail(fmt.Errorf("cold restart: %w", err))
			return
		}
	}
	q, err := w.submit(ctx, client.SubmitRequest{SQL: w.spec.mainSQL()})
	tr.served(q, "main")
	if err == nil && tr != nil {
		t.countMain(before, w.counters())
		err = w.queueWait(ctx, q.id, t)
	}
	var rem float64
	if err == nil {
		if d := q.events[len(q.events)-1].DoneU; d != ref.mainDoneU {
			err = fmt.Errorf("final DoneU %.6g, gate had %.6g", d, ref.mainDoneU)
		}
	}
	if err == nil {
		var el, re []float64
		for _, ev := range q.events {
			if !ev.Finished && !ev.Terminal() {
				el, re = append(el, ev.ElapsedSeconds), append(re, ev.RemainingSeconds)
			}
		}
		rem, err = remainingErr(el, re, q.events[len(q.events)-1].ElapsedSeconds)
	}
	if err != nil {
		t.fail(fmt.Errorf("streamed Q%d: %w", w.spec.mainQuery, err))
	} else {
		t.query.Add(q.totalMS)
		t.first.Add(q.firstMS)
		t.submit.Add(q.submitMS)
		t.remErr = append(t.remErr, rem)
		t.events = append(t.events, float64(len(q.events)))
	}
	for i := 0; i < w.spec.lookups; i++ {
		w.timedLookup(ctx, keys.next(), ref, t, tr)
	}
}

// timedLookup runs one point lookup, submitted with keep_rows and followed
// to its terminal event, and checks it.
func (w *servedRunner) timedLookup(ctx context.Context, key int64, ref reference, t *tally, tr *tracer) {
	t.attempted++
	q, err := w.lookup(ctx, key)
	tr.served(q, "lookup")
	if err == nil && tr != nil {
		err = w.queueWait(ctx, q.id, t)
	}
	if err == nil && q.events[len(q.events)-1].DoneU != ref.lookupDoneU {
		err = fmt.Errorf("final DoneU %.6g, gate had %.6g", q.events[len(q.events)-1].DoneU, ref.lookupDoneU)
	}
	if err != nil {
		t.fail(fmt.Errorf("lookup %d: %w", key, err))
		return
	}
	t.lookup.Add(q.totalMS)
	t.submit.Add(q.submitMS)
}

// lookupSlice returns a measure pause that runs n of the embedded
// workloads' lookups through progressd into t. Run between stretches of
// main queries, the lookups meet the same host conditions as the main
// queries but add nothing to their qps or allocations.
func lookupSlice(ctx context.Context, w *servedRunner, keys *keyGen, ref reference, n int, t *tally) func() {
	return func() {
		for i := 0; i < n; i++ {
			w.timedLookup(ctx, keys.next(), ref, t, nil)
		}
	}
}
