package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostFacts are printed with every result: figures from a 2-core laptop
// and a 16-core server are not comparable, and a scaling claim needs the
// core count beside it.
func hostFacts(s spec, seed int64, seconds float64, traced int) map[string]interface{} {
	return map[string]interface{}{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"commit":         commit(),
		"workload":       s.name,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          traced,
		"scale":          s.scale,
		"pool_pages":     s.poolPages,
		"work_mem_pages": workMemPages,
		"clients":        1,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "unknown" outside a git work
// tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
