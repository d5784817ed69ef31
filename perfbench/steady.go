package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// deterministic metrics are fixed by the virtual clock alone: with one
// client they repeat from run to run. Each main query starts at a
// different absolute virtual time, though, and float64 rounding of
// absolute times can move a refresh tick across one I/O charge. Between
// runs that moved remaining_err_pct by up to 4 parts in 10,000, so the
// check allows detTolerance.
const detTolerance = 1e-3

var deterministic = map[string]bool{
	"remaining_err_pct":        true,
	"core.refreshes_per_query": true,
	"server.events_per_query":  true,
}

// steadiness runs each selected workload n times, seeds 1..n, each in a
// fresh process, and prints every metric's median, quartiles and range.
// It fails if a run fails or a deterministic metric differs between runs.
func steadiness(n int, seconds float64, workload string, traced int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	selected := specs
	if workload != "" {
		s, err := specByName(workload)
		if err != nil {
			return err
		}
		selected = []spec{s}
	}
	var problems []string
	for _, s := range selected {
		if b, err := json.Marshal(map[string]interface{}{"host": hostFacts(s, 0, seconds, traced)}); err == nil {
			fmt.Println(string(b))
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", s.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("%s seed %d: %v", s.name, seed, err))
				continue
			case perr != nil:
				problems = append(problems, fmt.Sprintf("%s seed %d: %v", s.name, seed, perr))
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs of %gs, trace %d\n", s.name, n, seconds, traced)
		fmt.Printf("  %-36s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
		for _, name := range names {
			xs := values[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := "-"
			if med != 0 {
				spread = fmt.Sprintf("%.2f%%", 100*(q3-q1)/med)
			}
			fmt.Printf("  %-36s %12.5g %12.5g %12.5g %12.5g %12.5g %8s  %s\n", name, med, q1, q3, lo, hi, spread, units[name])
			if deterministic[name] && hi-lo > detTolerance*max(math.Abs(lo), math.Abs(hi)) {
				problems = append(problems, fmt.Sprintf("%s: %s differs between runs (%v)", s.name, name, xs))
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
		}
		return fmt.Errorf("%d problems", len(problems))
	}
	return nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect results (%d of %d failed)", res.Failed, res.Attempted)
	}
	return res, nil
}
