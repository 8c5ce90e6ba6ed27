package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of v by the nearest-rank rule on
// a sorted copy: the smallest sample with at least q of the samples at or
// below it. Zero for an empty slice.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// rate is one operation's contribution to throughput: work units done and
// the on-clock time they took.
type rate struct {
	work  float64
	clock time.Duration
}

// slicedRate is the throughput statistic: the run is cut into up to twenty
// consecutive slices of equal on-clock time (at least 0.4 s each; an
// operation is never split), each slice's rate is work over time, and the
// median slice is reported. A transient stall — a GC cycle, a neighbour on
// the host — lands in one slice and moves the median little, where it would
// move the run's mean in full.
func slicedRate(rs []rate) (perSecond float64, slices int) {
	var total time.Duration
	for _, r := range rs {
		total += r.clock
	}
	if total <= 0 {
		return 0, 0
	}
	k := min(max(int(total/(400*time.Millisecond)), 1), 20)
	target := total / time.Duration(k)
	var rates []float64
	var work float64
	var clock time.Duration
	for _, r := range rs {
		work += r.work
		clock += r.clock
		if clock >= target {
			rates = append(rates, work/clock.Seconds())
			work, clock = 0, 0
		}
	}
	if len(rates) == 0 {
		return work / clock.Seconds(), 1
	}
	return median(rates), len(rates)
}

// slicedTail is the tail-latency statistic: the q-quantile of each of up to
// twenty consecutive equal-count slices, median across slices. Each slice
// keeps at least ten samples beyond its quantile; with too few samples for
// two such slices it is the plain quantile of the run.
func slicedTail(lat []float64, q float64) (ms float64, slices int) {
	k := min(max(int(float64(len(lat))*(1-q)/10), 1), 20)
	per := len(lat) / k
	if per == 0 {
		return percentile(lat, q), 1
	}
	tails := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		tails = append(tails, percentile(lat[i*per:(i+1)*per], q))
	}
	return median(tails), k
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// environment is stamped on every result: numbers from different machines or
// toolchains must never be compared as if they were one series.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	GOGC       string `json:"gogc"`
	Link       string `json:"link"`
}

func stampEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		GOGC:       os.Getenv("GOGC"),
		Link:       "loopback TCP inside one process, not a real link",
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	env.Commit = headCommit()
	return env
}

// headCommit reads the checked-out commit from .git in the working directory
// without starting a process. The driver's checkout is not a git repository;
// "unknown" is the honest answer there.
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(".git/" + name); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+name); ok {
				return hash
			}
		}
	}
	return "unknown"
}
