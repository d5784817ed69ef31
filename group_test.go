package progressdb

import (
	"errors"
	"strings"
	"testing"
)

func groupDB(t *testing.T) *DB {
	t.Helper()
	// A small buffer pool keeps scans I/O-bound even when queries touch
	// the same table, so concurrent queries genuinely contend.
	db := Open(Config{
		ProgressUpdateSeconds: 0.5,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.01,
		RandPageCost:          0.08,
		BufferPoolPages:       64,
	})
	db.MustCreateTable("big", Col("k", Int), Col("pad", Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("big", int64(i), pad)
	}
	// A second identical table: scans of big and big2 compete for the
	// small pool (same-table scans would synchronize on shared pages).
	db.MustCreateTable("big2", Col("k", Int), Col("pad", Text))
	for i := 0; i < 20000; i++ {
		db.MustInsert("big2", int64(i), pad)
	}
	db.MustCreateTable("small", Col("k", Int), Col("pad", Text))
	for i := 0; i < 5000; i++ {
		db.MustInsert("small", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecGroupBasics(t *testing.T) {
	db := groupDB(t)
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "q1", SQL: "select * from big where k < 100", KeepRows: true},
		{Name: "q2", SQL: "select * from small where k < 10", KeepRows: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	if results[0].RowCount() != 100 || results[1].RowCount() != 10 {
		t.Fatalf("rows: %d %d", results[0].RowCount(), results[1].RowCount())
	}
}

// Concurrent queries share the clock, so each runs longer than it would
// alone — genuine contention, no synthetic interference.
func TestExecGroupContention(t *testing.T) {
	solo := groupDB(t)
	soloRes, err := solo.ExecGroup([]GroupQuery{{Name: "alone", SQL: "select * from big"}})
	if err != nil {
		t.Fatal(err)
	}
	soloDur := soloRes[0].VirtualSeconds

	db := groupDB(t)
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "a", SQL: "select * from big"},
		{Name: "b", SQL: "select * from big2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.VirtualSeconds < soloDur*1.5 {
			t.Fatalf("query %d: concurrent run %.1fs should be much slower than solo %.1fs",
				i, r.VirtualSeconds, soloDur)
		}
	}
}

func TestExecGroupDeterministic(t *testing.T) {
	run := func() []float64 {
		db := groupDB(t)
		results, err := db.ExecGroup([]GroupQuery{
			{Name: "a", SQL: "select * from big"},
			{Name: "b", SQL: "select * from small"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return []float64{results[0].VirtualSeconds, results[1].VirtualSeconds}
	}
	d1, d2 := run(), run()
	if d1[0] != d2[0] || d1[1] != d2[1] {
		t.Fatalf("nondeterministic group execution: %v vs %v", d1, d2)
	}
}

// A query arriving mid-run slows the first query down from its arrival
// point; the first query's indicator notices.
func TestExecGroupStaggeredArrival(t *testing.T) {
	db := groupDB(t)
	var aSpeeds []float64
	var aTimes []float64
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "a", SQL: "select * from big", OnProgress: func(r Report) {
			aTimes = append(aTimes, r.ElapsedSeconds)
			aSpeeds = append(aSpeeds, r.SpeedU)
		}},
		{Name: "late", SQL: "select * from big2", StartAt: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The late query started at +1.5s.
	if results[1].VirtualSeconds <= 0 {
		t.Fatal("late query did not run")
	}
	// a's speed before t=8 should exceed its speed after the arrival.
	var before, after []float64
	for i, ts := range aTimes {
		if aSpeeds[i] <= 0 {
			continue
		}
		if ts > 0.4 && ts <= 1.5 {
			before = append(before, aSpeeds[i])
		}
		if ts > 2.5 && ts < results[0].VirtualSeconds-0.5 {
			after = append(after, aSpeeds[i])
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Skipf("not enough samples: before=%d after=%d", len(before), len(after))
	}
	if meanF(after) > meanF(before)*0.75 {
		t.Fatalf("arrival of a second query should slow the first: before %.1f after %.1f",
			meanF(before), meanF(after))
	}
}

func meanF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// One member's failure must not take down its neighbors: the healthy
// query completes with a result, and the error is a *GroupError aligned
// with the inputs.
func TestExecGroupPartialFailure(t *testing.T) {
	db := groupDB(t)
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "ok", SQL: "select * from small", KeepRows: true},
		{Name: "bad", SQL: "select * from nosuchtable"},
	})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %T, want *GroupError", err)
	}
	if len(ge.Errs) != 2 || ge.Errs[0] != nil || ge.Errs[1] == nil {
		t.Fatalf("Errs = %v", ge.Errs)
	}
	if results[0] == nil || results[0].RowCount() != 5000 {
		t.Fatalf("healthy member should still complete: %+v", results[0])
	}
	if results[1] != nil {
		t.Fatal("failed member must have a nil result slot")
	}
}

func TestExecGroupEmpty(t *testing.T) {
	db := groupDB(t)
	results, err := db.ExecGroup(nil)
	if err != nil || results != nil {
		t.Fatalf("empty group: %v %v", results, err)
	}
}

func TestExecGroupManyQueries(t *testing.T) {
	db := groupDB(t)
	var qs []GroupQuery
	for i := 0; i < 5; i++ {
		qs = append(qs, GroupQuery{
			Name: string(rune('a' + i)),
			SQL:  "select * from small where k < 1000",
		})
	}
	results, err := db.ExecGroup(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r.History) == 0 {
			t.Fatalf("query %d has no progress history", i)
		}
		final := r.History[len(r.History)-1]
		if !final.Finished || final.Percent != 100 {
			t.Fatalf("query %d final: %+v", i, final)
		}
	}
}

// ExecGroup draws its clock from the clock group: after an earlier query
// moved the group past the engine's base clock, the group starts at Now
// and publishes its whole duration.
func TestGroupClockFollowsEarlierQuery(t *testing.T) {
	db := groupDB(t)
	if _, err := db.ExecDiscard("select * from small", nil); err != nil {
		t.Fatal(err)
	}
	before := db.Now()
	results, err := db.ExecGroup([]GroupQuery{{Name: "a", SQL: "select * from big"}})
	if err != nil {
		t.Fatal(err)
	}
	if after, want := db.Now(), before+results[0].VirtualSeconds; after < want-1e-9 {
		t.Fatalf("Now after group = %.4f, want >= %.4f (before %.4f + member %.4f)",
			after, want, before, results[0].VirtualSeconds)
	}
}

// A group member carries the same per-segment ledger as the query run
// alone: contention changes its timing, not the work it does.
func TestGroupMemberSegmentsMatchSolo(t *testing.T) {
	mk := func() *DB {
		db := Open(Config{WorkMemPages: 16, BufferPoolPages: 128})
		if err := db.LoadPaperWorkload(0.01, false); err != nil {
			t.Fatal(err)
		}
		return db
	}
	q1, _ := PaperQuery(1)
	q2, _ := PaperQuery(2)
	members, err := mk().ExecGroup([]GroupQuery{{Name: "q1", SQL: q1}, {Name: "q2", SQL: q2}})
	if err != nil {
		t.Fatal(err)
	}
	solo := mk()
	for i, sql := range []string{q1, q2} {
		alone, err := solo.ExecDiscard(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := members[i].Segments, alone.Segments
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("q%d: member has %d segments, alone %d", i+1, len(got), len(want))
		}
		for j := range got {
			if got[j].ActualCostU != want[j].ActualCostU {
				t.Fatalf("q%d segment %d: member ActualCostU %v, alone %v",
					i+1, j, got[j].ActualCostU, want[j].ActualCostU)
			}
		}
	}
}
