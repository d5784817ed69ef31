package main

import (
	"fmt"
	"math/rand"
	"time"

	"progressdb"
	"progressdb/internal/catalog"
	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/obs"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// workMemPages is progressd's default work_mem (16 pages = 128 KiB).
const workMemPages = 16

// spec is one workload: the data it runs on, the pool it runs against and
// the query its cycle starts with.
type spec struct {
	name      string
	scale     float64
	poolPages int
	mainQuery int  // the paper's query number
	served    bool // the main query is streamed through progressd
	// lookups is how many point lookups follow each main query in a
	// served cycle. A fixed count keeps qps and alloc_mb_per_query
	// comparable across seeds; the seed only picks the keys. Embedded
	// cycles are the main query alone; their lookups run in slices
	// between stretches of main queries (lookupSlice).
	lookups int
	// mainSeconds is the shortest main-query phase: long enough for at
	// least twice the 100 main queries a p90 needs, at the speed measured
	// on a 2-vCPU Xeon VM, and long enough to span several of the slow
	// and fast stretches, seconds long each, that Q1 runs in on that host.
	// A fixed length, rather than one that runs until 100 queries have
	// completed, keeps a faster or slower program measured over the same
	// wall time.
	mainSeconds float64
}

var specs = []spec{
	{
		name:        "scan-q1",
		scale:       0.02,
		poolPages:   256,
		mainQuery:   1,
		mainSeconds: 24, // 45-65 ms per Q1
	},
	{
		name:        "join-q2",
		scale:       0.01,
		poolPages:   256,
		mainQuery:   2,
		mainSeconds: 36, // ~183 ms per Q2
	},
	{
		name:        "serve-mix",
		scale:       0.02,
		poolPages:   512,
		mainQuery:   1,
		served:      true,
		lookups:     40,
		mainSeconds: 24, // ~110 ms per cycle
	},
}

// mainPhase is how long a run times main queries: d, or the workload's
// mainSeconds if that is longer.
func (s spec) mainPhase(d time.Duration) time.Duration {
	return max(d, time.Duration(s.mainSeconds*float64(time.Second)))
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// costs scales the I/O costs by 1/scale, as internal/harness does, so that
// virtual durations match the paper's full-scale runs and the main queries
// get several refreshes at the paper's 10 s period.
func (s spec) costs() vclock.Costs {
	c := vclock.DefaultCosts()
	c.SeqPage /= s.scale
	c.RandPage /= s.scale
	return c
}

func (s spec) config(metrics bool) progressdb.Config {
	c := s.costs()
	return progressdb.Config{
		BufferPoolPages: s.poolPages,
		WorkMemPages:    workMemPages,
		SeqPageCost:     c.SeqPage,
		RandPageCost:    c.RandPage,
		Metrics:         metrics,
	}
}

func (s spec) mainSQL() string {
	sql, err := progressdb.PaperQuery(s.mainQuery)
	if err != nil {
		panic(err) // the spec table names Q1 and Q2 only
	}
	return sql
}

// rows returns the generator's cardinality of the main query's result:
// every lineitem row, for Q1 as for Q2 (each lineitem joins one order and
// one customer).
func (s spec) rows() int {
	return int(float64(workload.BaseCustomers)*s.scale+0.5) * workload.OrdersPerCust * workload.LinesPerOrder
}

func (s spec) orders() int {
	return int(float64(workload.BaseCustomers)*s.scale+0.5) * workload.OrdersPerCust
}

func lookupSQL(key int64) string {
	return fmt.Sprintf("select * from orders where orderkey = %d", key)
}

// keyGen draws the lookup keys of one run from the seed.
type keyGen struct {
	rng    *rand.Rand
	orders int
}

func newKeyGen(seed int64, orders int) *keyGen {
	return &keyGen{rng: rand.New(rand.NewSource(seed)), orders: orders}
}

func (g *keyGen) next() int64 { return int64(g.rng.Intn(g.orders)) }

// openDB builds the engine a workload runs on through the public API:
// open, load (which analyzes), and index orders(orderkey).
func openDB(s spec, metrics bool) (*progressdb.DB, error) {
	db := progressdb.Open(s.config(metrics))
	if err := db.LoadPaperWorkload(s.scale, false); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := db.CreateIndex("orders", "orderkey"); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return db, nil
}

// rawEngine is the same engine assembled from the internal layers, with
// the same sizes and costs as openDB. The traced run and the layer probes
// call into its layers directly, and the correctness oracle reads its
// heaps.
type rawEngine struct {
	spec  spec
	group *vclock.Group
	clock *vclock.Clock
	disk  *storage.Disk
	pool  *storage.BufferPool
	cat   *catalog.Catalog
	reg   *obs.Registry
	exec  exec.Metrics
	refin core.RefinementMetrics
}

func openRaw(s spec) (*rawEngine, error) {
	e := &rawEngine{spec: s, group: vclock.NewGroup(s.costs())}
	e.clock = e.group.Worker()
	e.disk = storage.NewDisk(e.clock)
	e.pool = storage.NewBufferPool(e.disk, s.poolPages)
	e.cat = catalog.New(e.pool)
	if _, err := workload.Load(e.cat, workload.Config{Scale: s.scale}); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	orders, err := e.cat.Table("orders")
	if err != nil {
		return nil, err
	}
	if _, err := e.cat.CreateIndex(orders, "orderkey"); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	e.clock.Sync()
	return e, nil
}

// enableMetrics wires a registry into the layers the traced run reads
// counters from. It registers only those counters, under the names
// progressdb's Config.Metrics gives them (DB.wireMetrics in observe.go);
// runTraced fails if one it reads is missing.
func (e *rawEngine) enableMetrics() {
	reg := obs.NewRegistry()
	e.reg = reg
	e.pool.SetMetrics(storage.PoolMetrics{
		Hits:      reg.Counter("bufferpool_hits_total", "page lookups served from the buffer pool"),
		Misses:    reg.Counter("bufferpool_misses_total", "page lookups read through to disk"),
		Evictions: reg.Counter("bufferpool_evictions_total", "frames displaced by LRU"),
	})
	e.disk.SetMetrics(storage.DiskMetrics{
		SeqWrites:  reg.Counter("disk_seq_writes_total", "sequential physical page writes"),
		RandWrites: reg.Counter("disk_rand_writes_total", "random physical page writes"),
	})
	e.exec = exec.NewMetrics(reg)
	e.refin = core.NewRefinementMetrics(reg)
}

// coldRestart empties the pool, as progressdb.DB.ColdRestart does.
func (e *rawEngine) coldRestart() error {
	if err := e.pool.Flush(); err != nil {
		return err
	}
	e.pool.Clear()
	e.clock.Sync()
	return nil
}

// counters maps each metric name to its value summed over labels, and
// each labeled series to its own value as name{label}.
func counters(samples []obs.Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Name] += s.Value
		if s.LabelKey != "" {
			m[s.Name+"{"+s.LabelVal+"}"] = s.Value
		}
	}
	return m
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
