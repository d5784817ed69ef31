package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. The spans of one query share Query; a
// root span has Parent 0.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Query  int     `json:"query"`
	Class  string  `json:"class"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. One client goroutine
// records into it; a nil tracer records nothing.
type tracer struct {
	t0      time.Time
	spans   []span
	queries int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) us(t time.Time) float64 { return float64(t.Sub(tr.t0).Nanoseconds()) / 1e3 }

// query records a root span over marks[0]..marks[len-1] and one child
// span per consecutive pair of marks, named by names.
func (tr *tracer) query(class string, names []string, marks []time.Time) {
	if tr == nil {
		return
	}
	tr.queries++
	q := tr.queries
	root := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: root, Query: q, Class: class, Name: "query",
		Start: tr.us(marks[0]), End: tr.us(marks[len(marks)-1])})
	for i, name := range names {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: root, Query: q, Class: class,
			Name: name, Start: tr.us(marks[i]), End: tr.us(marks[i+1])})
	}
}

// served records a query streamed through progressd: the POST round
// trip, the wait until its first progress event, and the stream up to the
// terminal event.
func (tr *tracer) served(q streamed, class string) {
	if tr == nil || q.totalMS == 0 {
		return
	}
	at := func(ms float64) time.Time { return q.submitted.Add(time.Duration(ms * 1e6)) }
	tr.query(class, []string{"client.submit", "server.queue", "server.stream"},
		[]time.Time{q.submitted, at(q.submitMS), at(q.firstMS), at(q.totalMS)})
}

// selfTimes returns, per class and span name, the median self time in
// microseconds: a span's duration minus its children's. The children
// query records tile their root, so a root's self time is 0 up to
// rounding.
func (tr *tracer) selfTimes() map[string]map[string]float64 {
	childUS := map[int]float64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			childUS[s.Parent] += s.End - s.Start
		}
	}
	per := map[string]map[string][]float64{}
	for _, s := range tr.spans {
		if per[s.Class] == nil {
			per[s.Class] = map[string][]float64{}
		}
		per[s.Class][s.Name] = append(per[s.Class][s.Name], s.End-s.Start-childUS[s.ID])
	}
	out := map[string]map[string]float64{}
	for class, names := range per {
		out[class] = map[string]float64{}
		for name, xs := range names {
			out[class][name] = median(xs)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir and returns the path.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
