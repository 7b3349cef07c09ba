package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison and tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// resultSet is a recorded set of runs: for each workload, the metrics of
// each run as the result line printed them.
type resultSet map[string][]map[string]metric

// regression is one end-to-end metric whose median got worse by more than
// its bound.
type regression struct {
	workload, metric string
	parent, change   float64 // medians
	worse, bound     float64 // shares of the parent median
}

func (r regression) String() string {
	return fmt.Sprintf("%s %s: median %.6g -> %.6g, %.1f%% worse (bound %.1f%%)",
		r.workload, r.metric, r.parent, r.change, 100*r.worse, 100*r.bound)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets checks every end-to-end metric of every workload the parent
// set holds: the change's median may be worse than the parent's by at most
// the metric's bound.
func compareSets(spec benchSpec, parent, change resultSet) ([]regression, error) {
	workloads := make([]string, 0, len(parent))
	for w := range parent {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var regs []regression
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			pv, err := medianOf(parent[w], m.Name)
			if err != nil {
				return nil, fmt.Errorf("parent %s: %w", w, err)
			}
			cv, err := medianOf(change[w], m.Name)
			if err != nil {
				return nil, fmt.Errorf("change %s: %w", w, err)
			}
			worse := (cv - pv) / pv
			if m.Better == "higher" {
				worse = (pv - cv) / pv
			}
			if worse > m.Bound {
				regs = append(regs, regression{workload: w, metric: m.Name, parent: pv, change: cv, worse: worse, bound: m.Bound})
			}
		}
	}
	return regs, nil
}

func medianOf(runs []map[string]metric, name string) (float64, error) {
	var xs []float64
	for _, r := range runs {
		v, ok := r[name]
		if !ok {
			return 0, fmt.Errorf("a run lacks metric %s", name)
		}
		xs = append(xs, v.Value)
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("no runs")
	}
	return median(xs), nil
}

// compareMain runs -compare PARENT CHANGE against ./BENCHMARK.json: exit
// status 0 when nothing regressed, 1 on a regression, 2 on bad input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare PARENT.json CHANGE.json")
		return 2
	}
	var spec benchSpec
	var parent, change resultSet
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &spec}, {args[0], &parent}, {args[1], &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	regs, err := compareSets(spec, parent, change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, r := range regs {
		fmt.Println("REGRESSION", r)
	}
	if len(regs) > 0 {
		return 1
	}
	fmt.Println("no regression beyond the bounds")
	return 0
}
