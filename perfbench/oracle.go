package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"progressdb/internal/catalog"
	"progressdb/internal/tuple"
)

// rowSum is an order-independent checksum of a result: the row count and
// the wrapping sum of a hash of each row. Numbers are hashed as float64 so
// that rows decoded from JSON and rows read from the engine agree.
type rowSum struct {
	Rows int
	Sum  uint64
}

func (s *rowSum) add(vals []interface{}) {
	h := fnv.New64a()
	var buf []byte
	for _, v := range vals {
		buf = buf[:0]
		switch x := v.(type) {
		case int64:
			buf = strconv.AppendFloat(buf, float64(x), 'g', -1, 64)
		case float64:
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		case string:
			buf = append(buf, x...)
		default:
			buf = fmt.Appendf(buf, "%v", x)
		}
		buf = append(buf, 0x1f)
		_, _ = h.Write(buf) // hash.Hash writes never fail
	}
	s.Rows++
	s.Sum += h.Sum64()
}

func valueOf(v tuple.Value) interface{} {
	switch v.Kind {
	case tuple.Int:
		return v.I
	case tuple.Float:
		return v.F
	default:
		return v.S
	}
}

// scanTable decodes every row of a table straight from its heap file.
func scanTable(cat *catalog.Catalog, name string, fn func(tuple.Tuple)) (*tuple.Schema, error) {
	t, err := cat.Table(name)
	if err != nil {
		return nil, err
	}
	sc := t.Heap.NewScanner()
	defer sc.Close()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := tuple.Decode(rec, t.Schema.Arity())
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", name, err)
		}
		fn(row)
	}
	return t.Schema, sc.Err()
}

// expected computes the main query's result checksum without the
// optimizer or executor: Q1 is the lineitem heap as stored, and Q2 is a
// map join over the three heaps.
func expected(e *rawEngine) (rowSum, error) {
	var sum rowSum
	switch e.spec.mainQuery {
	case 1:
		_, err := scanTable(e.cat, "lineitem", func(r tuple.Tuple) {
			vals := make([]interface{}, len(r))
			for i, v := range r {
				vals[i] = valueOf(v)
			}
			sum.add(vals)
		})
		return sum, err
	case 2:
		acctbal := map[int64]float64{}
		cs, err := e.cat.Table("customer")
		if err != nil {
			return sum, err
		}
		ck, ca := cs.Schema.ColIndex("custkey"), cs.Schema.ColIndex("acctbal")
		if _, err := scanTable(e.cat, "customer", func(r tuple.Tuple) { acctbal[r[ck].I] = r[ca].F }); err != nil {
			return sum, err
		}
		type order struct {
			cust  int64
			price float64
		}
		orders := map[int64]order{}
		os, err := e.cat.Table("orders")
		if err != nil {
			return sum, err
		}
		ok, oc, op := os.Schema.ColIndex("orderkey"), os.Schema.ColIndex("custkey"), os.Schema.ColIndex("totalprice")
		if _, err := scanTable(e.cat, "orders", func(r tuple.Tuple) {
			orders[r[ok].I] = order{cust: r[oc].I, price: r[op].F}
		}); err != nil {
			return sum, err
		}
		ls, err := e.cat.Table("lineitem")
		if err != nil {
			return sum, err
		}
		lo, lp := ls.Schema.ColIndex("orderkey"), ls.Schema.ColIndex("partkey")
		ld, le := ls.Schema.ColIndex("discount"), ls.Schema.ColIndex("extendedprice")
		_, err = scanTable(e.cat, "lineitem", func(r tuple.Tuple) {
			o, found := orders[r[lo].I]
			if !found || math.Abs(float64(r[lp].I)) <= 0 {
				return
			}
			bal, found := acctbal[o.cust]
			if !found {
				return
			}
			sum.add([]interface{}{o.cust, bal, r[lo].I, o.price, r[ld].F, r[le].F})
		})
		return sum, err
	}
	return sum, fmt.Errorf("no oracle for Q%d", e.spec.mainQuery)
}
