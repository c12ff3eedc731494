package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// childProcs is the GOMAXPROCS every measured child runs under. The
// engine runs one simulated process at a time, so a second P buys only
// concurrent GC, and costs a cross-thread futex wake on every proc
// handoff: on the 2-core reference sandbox GOMAXPROCS=2 ran coll_mix_64x8
// 46% and pp_eager 18% slower than GOMAXPROCS=1 and, because which P the
// woken goroutine lands on is up to the scheduler, spread pp_eager_instr's
// reps 18% (IQR / median) against 7%. A benchmark that noisy could not
// hold its own regression bounds, so the pin is 1; the traced run keeps
// the other setting in view as goruntime.wall_ratio_p2.
const childProcs = 1

// envInfo records the conditions a report was taken under.
type envInfo struct {
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"nproc"`
	ChildProcs  int     `json:"child_gomaxprocs"`
	ChildGOGC   string  `json:"child_gogc"`
	CPUModel    string  `json:"cpu_model"`
	LoadAvg1    float64 `json:"loadavg_1m_at_start"`
	LoadWarning string  `json:"load_warning,omitempty"`
}

func readEnv() envInfo {
	e := envInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), ChildProcs: childProcs, ChildGOGC: "default (100)",
		CPUModel: "unknown", LoadAvg1: -1,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				e.LoadAvg1 = v
			}
		}
	}
	if limit := 0.5 * float64(e.NumCPU); e.LoadAvg1 > limit {
		e.LoadWarning = fmt.Sprintf("1-minute load average %.2f exceeds %.1f (0.5 x nproc): host times are suspect", e.LoadAvg1, limit)
	}
	return e
}

// childEnv is the parent's environment with every knob that changes the
// Go runtime's behaviour removed and GOMAXPROCS pinned to procs.
func childEnv(procs int) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(procs))
}
