package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/optimizer"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Probe sizes: each probe repeats its call in batches and reports the
// median batch, so one descheduled batch does not move the figure.
const (
	probeBatches    = 15
	overheadPairs   = 15
	hookCallsBatch  = 200_000
	getCallsBatch   = 50_000
	snapshotBatch   = 2_000
	searchKeys      = 2_000
	tupleRows       = 5_000
	parseRepeats    = 20
	recordBytesHint = 128
)

// layerProbes are per-call costs of each layer, timed by calling its
// public functions directly on the raw engine.
type layerProbes struct {
	parseUS, planUS          float64
	searchUS, pagesPerSearch float64
	hitNS, missNS            float64
	contendedNS              float64
	decodeNS, encodeNS       float64
	decodeAllocs             float64
	runMS                    float64
	hookNS, snapshotUS       float64
	overheadPct, overheadIQR float64
}

// batchMedian times fn over probeBatches batches of n calls and returns
// the median cost of one call in nanoseconds.
func batchMedian(n int, fn func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

func probeLayers(e *rawEngine, s spec, seed int64) (layerProbes, error) {
	var lp layerProbes
	var err error
	keys := newKeyGen(seed, s.orders())
	if lp.parseUS, lp.planUS, err = probeParsePlan(e, keys); err != nil {
		return lp, err
	}
	if lp.searchUS, lp.pagesPerSearch, err = probeSearch(e, keys); err != nil {
		return lp, err
	}
	if lp.hitNS, lp.missNS, lp.contendedNS, err = probeStorage(e); err != nil {
		return lp, err
	}
	if lp.decodeNS, lp.encodeNS, lp.decodeAllocs, err = probeTuple(e); err != nil {
		return lp, err
	}
	if err = probeCore(e, &lp); err != nil {
		return lp, err
	}
	return lp, nil
}

// probeParsePlan parses and plans one cycle's statements — the main query
// and its lookups — parseRepeats times and returns median microseconds
// per statement.
func probeParsePlan(e *rawEngine, keys *keyGen) (parseUS, planUS float64, err error) {
	sqls := []string{e.spec.mainSQL()}
	for i := 0; i < e.spec.lookups; i++ {
		sqls = append(sqls, lookupSQL(keys.next()))
	}
	var parse, plan []float64
	for r := 0; r < parseRepeats; r++ {
		for _, sql := range sqls {
			t0 := time.Now()
			st, err := sqlparser.ParseStatement(sql)
			t1 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			if _, err := optimizer.Plan(e.cat, st.Select, optimizer.Options{WorkMemPages: workMemPages}); err != nil {
				return 0, 0, err
			}
			parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
			plan = append(plan, float64(time.Since(t1).Nanoseconds())/1e3)
		}
	}
	return median(parse), median(plan), nil
}

// probeSearch looks up searchKeys seeded order keys in the orders index
// and returns median microseconds and mean pool gets per search.
func probeSearch(e *rawEngine, keys *keyGen) (us, pages float64, err error) {
	orders, err := e.cat.Table("orders")
	if err != nil {
		return 0, 0, err
	}
	ix := orders.IndexOn("orderkey")
	if ix == nil {
		return 0, 0, fmt.Errorf("no index on orders(orderkey)")
	}
	var times []float64
	var gets int64
	for i := 0; i < searchKeys; i++ {
		k := keys.next()
		st0 := e.pool.Stats()
		t0 := time.Now()
		rids, err := ix.Tree.Search(k)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, err
		}
		if len(rids) != 1 {
			return 0, 0, fmt.Errorf("btree search of %d found %d entries", k, len(rids))
		}
		st1 := e.pool.Stats()
		gets += st1.Hits + st1.Misses - st0.Hits - st0.Misses
	}
	return median(times), float64(gets) / searchKeys, nil
}

// probeStorage times BufferPool.Get on a resident page, on pages that
// were evicted (a sequential sweep over a heap larger than the pool), and
// on a resident page from runtime.NumCPU goroutines at once.
func probeStorage(e *rawEngine) (hitNS, missNS, contendedNS float64, err error) {
	li, err := e.cat.Table("lineitem")
	if err != nil {
		return 0, 0, 0, err
	}
	file := li.Heap.ID()
	pages := li.Heap.NumPages()
	if pages <= 2*e.pool.Capacity() {
		return 0, 0, 0, fmt.Errorf("lineitem has %d pages, not enough to sweep a %d-page pool", pages, e.pool.Capacity())
	}
	orders, err := e.cat.Table("orders")
	if err != nil {
		return 0, 0, 0, err
	}
	hot := storage.PageID{File: orders.Heap.ID(), Num: 0}
	if _, err := e.pool.Get(hot); err != nil {
		return 0, 0, 0, err
	}
	hitNS = batchMedian(getCallsBatch, func(int) { _, err = e.pool.Get(hot) })
	if err != nil {
		return 0, 0, 0, err
	}

	st0 := e.pool.Stats()
	missNS = batchMedian(pages, func(i int) {
		if _, gerr := e.pool.Get(storage.PageID{File: file, Num: int32(i)}); gerr != nil {
			err = gerr
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	st1 := e.pool.Stats()
	if gets, misses := st1.Hits+st1.Misses-st0.Hits-st0.Misses, st1.Misses-st0.Misses; misses != gets {
		return 0, 0, 0, fmt.Errorf("miss probe: %d of %d gets missed", misses, gets)
	}

	if _, err := e.pool.Get(hot); err != nil {
		return 0, 0, 0, err
	}
	workers := runtime.NumCPU()
	per := make([]float64, probeBatches)
	errs := make([]error, workers)
	for b := range per {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				clk := e.group.Worker()
				for i := 0; i < getCallsBatch; i++ {
					if _, gerr := e.pool.GetOn(clk, hot); gerr != nil {
						errs[g] = gerr
						return
					}
				}
			}(g)
		}
		wg.Wait()
		per[b] = float64(time.Since(start).Nanoseconds()) / getCallsBatch
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return hitNS, missNS, median(per), nil
}

// probeTuple decodes and re-encodes tupleRows lineitem records.
func probeTuple(e *rawEngine) (decodeNS, encodeNS, allocs float64, err error) {
	li, err := e.cat.Table("lineitem")
	if err != nil {
		return 0, 0, 0, err
	}
	arity := li.Schema.Arity()
	var recs [][]byte
	sc := li.Heap.NewScanner()
	for len(recs) < tupleRows {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
	sc.Close()
	if err := sc.Err(); err != nil {
		return 0, 0, 0, err
	}
	rows := make([]tuple.Tuple, len(recs))
	decodeNS = batchMedian(len(recs), func(i int) {
		rows[i], err = tuple.Decode(recs[i], arity)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, r := range recs {
		rows[i], _ = tuple.Decode(r, arity) // decoded without error above
	}
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(recs))
	buf := make([]byte, 0, recordBytesHint)
	encodeNS = batchMedian(len(rows), func(i int) { buf = rows[i].Encode(buf[:0]) })
	return decodeNS, encodeNS, allocs, nil
}

// probeCore times the indicator's per-tuple hook and a snapshot, and runs
// the main query in alternated pairs with and without the indicator.
func probeCore(e *rawEngine, lp *layerProbes) error {
	p, err := planFor(e, e.spec.mainSQL())
	if err != nil {
		return err
	}
	d := segment.Decompose(p, workMemPages)
	if len(d.Segments) == 0 || len(d.Segments[0].Inputs) == 0 {
		return fmt.Errorf("main query has no segment input to report into")
	}
	ind := core.New(e.group.Worker(), d, core.Options{})
	ind.Start()
	lp.hookNS = batchMedian(hookCallsBatch, func(int) { ind.InputTuple(0, 0, recordBytesHint) })
	lp.snapshotUS = batchMedian(snapshotBatch, func(int) { _ = ind.Current() }) / 1e3
	ind.Stop()

	run := func(withIndicator bool) (float64, error) {
		e.clock.Sync()
		clk := e.group.Worker()
		defer clk.Sync()
		env := &exec.Env{Pool: e.pool, Clock: clk, WorkMemPages: workMemPages, Decomp: d}
		if withIndicator {
			ind := core.New(clk, d, core.Options{})
			ind.Start()
			defer ind.Stop()
			env.Reporter = ind
		}
		start := time.Now()
		_, err := exec.Run(env, p, nil)
		return sinceMS(start), err
	}
	var without, overhead []float64
	for i := 0; i < overheadPairs; i++ {
		// Alternate which side runs first so that a drift in machine
		// speed does not favour one side.
		withFirst := i%2 == 0
		var ms [2]float64
		for _, with := range []bool{withFirst, !withFirst} {
			t, err := run(with)
			if err != nil {
				return err
			}
			if with {
				ms[1] = t
			} else {
				ms[0] = t
			}
		}
		without = append(without, ms[0])
		overhead = append(overhead, 100*(ms[1]-ms[0])/ms[0])
	}
	lp.runMS = median(without)
	lp.overheadPct = median(overhead)
	q1, q3 := quartiles(overhead)
	lp.overheadIQR = q3 - q1
	return nil
}
