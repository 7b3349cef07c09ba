// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall time from a seed and prints, as the last
// line of standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
//	bash benchmark/run.sh --workload train-bert --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	train-bert     bert-large b16 at scale 8 under DeepUM and UM, in process
//	train-dlrm     dlrm b128000 at scale 8 under DeepUM and UM, in process
//	serve-admit    a deepum-serve process with a journal and a store; tiny runs
//	serve-oversub  a 2-shard oversubscribed deepum-serve; checkpointing runs
//
// BENCHMARK.json lists train-bert and serve-oversub, whose figures repeat
// from run to run on a shared two-CPU machine; train-dlrm (memory-bound
// policy chasing) and serve-admit (fsync-bound) swing by more than any
// bound there, so they run only by name.
//
// Every workload reports every end-to-end metric, so that each run prints
// the same set: train-* workloads submit their runs to an in-process
// supervisor (the library path), serve-* workloads to the server over HTTP;
// the sim_* metrics of serve-* come from the in-process oracle that checks
// each served run.
//
// With -compare PARENT CHANGE it instead compares two recorded result sets
// against the bounds in BENCHMARK.json and exits 1 on a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	serveBin string
	work     string
}

// ops counts the operations a workload attempted and the ones that failed,
// were refused or returned a wrong result. Safe for concurrent use.
type ops struct {
	attempted, failed atomic.Int64
}

func (o *ops) try() { o.attempted.Add(1) }

// fail counts one failed operation and says why on standard error.
func (o *ops) fail(format string, args ...any) {
	o.failed.Add(1)
	fmt.Fprintf(os.Stderr, "benchmark: FAIL: "+format+"\n", args...)
}

func (o *ops) successRate() float64 {
	a := o.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(a-o.failed.Load()) / float64(a)
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured wall seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "deepum-serve binary (serve-* workloads)")
	flag.StringVar(&o.work, "work", "", "scratch directory for journals, stores and traces")
	flag.BoolVar(&compare, "compare", false, "compare two recorded result sets: -compare PARENT.json CHANGE.json")
	flag.Parse()
	o.traced = trace == 1

	if compare {
		os.Exit(compareMain(flag.Args()))
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	return []string{"train-bert", "train-dlrm", "serve-admit", "serve-oversub"}
}

func run(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.work == "" {
		return fmt.Errorf("-work is required")
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var c ops
	var m map[string]metric
	switch o.workload {
	case "train-bert", "train-dlrm":
		m, err = runTrain(o, &c, tr)
	case "serve-admit", "serve-oversub":
		if o.serveBin == "" {
			return fmt.Errorf("-serve-bin is required for %s", o.workload)
		}
		m, err = runServe(o, &c, tr)
	default:
		return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return err
	}
	if o.traced {
		path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		printAttribution(o.workload, m, path)
	}
	res := result{
		Attempted: c.attempted.Load(),
		Failed:    c.failed.Load(),
		Metrics:   m,
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", o.workload)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share is (with − without) ÷ with: the part of a cost a feature accounts
// for when turning it off leaves the rest unchanged. It can read below 0
// when the feature's cost is within noise.
func share(with, without float64) float64 {
	if with == 0 {
		return 0
	}
	return (with - without) / with
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
