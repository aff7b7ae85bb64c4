package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Seeds recorded with every result. The default seed is the one baselines
// are quoted at; the held-out seed is kept out of tuning so a claimed gain
// can be re-checked on inputs the change was not written against.
const (
	defaultSeed = 1
	heldOutSeed = 20170529
)

// runContext travels with every result so host-time numbers are compared
// only between matching hosts and commits.
type runContext struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	DefaultSeed int64   `json:"default_seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	GitSHA      string  `json:"git_sha"`
	Host        host    `json:"host"`
}

type host struct {
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() host {
	return host{
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file does not exist).
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

// peakRSSMB is the process's peak resident set (VmHWM) in MiB. Where
// /proc is absent it falls back to the memory the Go runtime obtained
// from the OS, an upper bound on the Go heap's share of it.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// calibrationMs times a fixed piece of host work, sorting a million
// pseudo-random integers, and returns the median of three timings in
// milliseconds. Printed before and after a run, it shows whether the host
// itself ran slower, which moves every host-time metric at once.
func calibrationMs() float64 {
	xs := make([]uint64, 1<<20)
	var times []float64
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = x
		}
		start := time.Now()
		slices.Sort(xs)
		times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(times)
}
