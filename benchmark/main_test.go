package main

import (
	"math"
	"testing"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// loadRecorded reads a result set recorded from real runs of every
// workload (ten seeds each).
func loadRecorded(t *testing.T) resultSet {
	t.Helper()
	var rec resultSet
	if err := readJSON("testdata/recorded.json", &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// slowed returns a copy of rec with one metric of one workload made worse
// by the share given: larger for lower-is-better metrics, smaller for
// higher-is-better ones.
func slowed(rec resultSet, workload, name, better string, by float64) resultSet {
	out := resultSet{}
	for w, runs := range rec {
		for _, r := range runs {
			c := map[string]metric{}
			for k, v := range r {
				if w == workload && k == name {
					if better == "higher" {
						v.Value *= 1 - by
					} else {
						v.Value *= 1 + by
					}
				}
				c[k] = v
			}
			out[w] = append(out[w], c)
		}
	}
	return out
}

func TestRecordedSetCoversBenchmark(t *testing.T) {
	spec := loadSpec(t)
	rec := loadRecorded(t)
	for _, w := range spec.Workloads {
		runs := rec[w.Name]
		if len(runs) == 0 {
			t.Fatalf("no recorded runs of %s", w.Name)
		}
		for _, m := range spec.EndToEnd {
			for i, r := range runs {
				v, ok := r[m.Name]
				if !ok {
					t.Errorf("%s run %d lacks %s", w.Name, i, m.Name)
				} else if v.Value == 0 || v.Unit != m.Unit {
					t.Errorf("%s run %d: %s = %v %s, want a nonzero value in %s", w.Name, i, m.Name, v.Value, v.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCompareAcceptsUnchangedSet(t *testing.T) {
	spec := loadSpec(t)
	rec := loadRecorded(t)
	regs, err := compareSets(spec, rec, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		t.Errorf("unchanged set flagged: %v", r)
	}
}

// TestCompareFlagsInjectedRegression injects a 20% slowdown into one
// end-to-end metric at a time; the comparison must flag exactly that
// metric wherever its bound is tighter than 20%.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	spec := loadSpec(t)
	rec := loadRecorded(t)
	flagged := 0
	for _, m := range spec.EndToEnd {
		if m.Bound >= 0.2 {
			continue
		}
		for w := range rec {
			regs, err := compareSets(spec, rec, slowed(rec, w, m.Name, m.Better, 0.2))
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) != 1 || regs[0].workload != w || regs[0].metric != m.Name {
				t.Errorf("20%% slowdown of %s on %s: got %v", m.Name, w, regs)
			}
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no end-to-end metric has a bound below 20%")
	}
}

// TestCompareHonoursEachBound checks every metric at both sides of its
// own bound: half of it passes, one and a half times it is flagged.
func TestCompareHonoursEachBound(t *testing.T) {
	spec := loadSpec(t)
	rec := loadRecorded(t)
	for _, m := range spec.EndToEnd {
		for w := range rec {
			regs, err := compareSets(spec, rec, slowed(rec, w, m.Name, m.Better, m.Bound/2))
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) != 0 {
				t.Errorf("%s on %s worse by half its bound: flagged %v", m.Name, w, regs)
			}
			regs, err = compareSets(spec, rec, slowed(rec, w, m.Name, m.Better, m.Bound*1.5))
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) != 1 {
				t.Errorf("%s on %s worse by 1.5 times its bound: got %v", m.Name, w, regs)
			}
		}
	}
}

func TestLayerTableMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		p := spec.PerLayer[i]
		if p.Name != l.name || p.Unit != l.unit || p.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, p, l)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
