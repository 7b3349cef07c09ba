package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickOpts keeps experiment tests fast: scale 32, one batch per model.
func quickOpts() Options {
	return Options{Scale: 32, Iterations: 3, Warmup: 4, Quick: true, Seed: 1}
}

func TestAllRegistry(t *testing.T) {
	exps := All()
	if len(exps) != 11 {
		t.Fatalf("experiments = %d, want 11 (every table and figure)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFig9aShape(t *testing.T) {
	tbl, err := Fig9a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 { // 7 workloads + GMEAN
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	// Every DeepUM cell must be a number (DeepUM never OOMs here) and the
	// GMEAN row must show DeepUM ahead of naive UM (speedup > 1).
	gmean := tbl.Rows[len(tbl.Rows)-1]
	if gmean[0] != "GMEAN" {
		t.Fatalf("last row = %v", gmean)
	}
	if strings.HasPrefix(gmean[3], "0.") {
		t.Fatalf("DeepUM GMEAN below 1x: %v", gmean)
	}
	// The resnet rows must show LMS failing (OOM) where DeepUM runs — the
	// central Table 3 story.
	foundOOM := false
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r[0], "resnet") && r[1] == "-" && r[3] != "-" {
			foundOOM = true
		}
	}
	if !foundOOM {
		t.Fatal("expected LMS OOM on a resnet batch that DeepUM handles")
	}
}

func TestFig9bAndCShareMatrix(t *testing.T) {
	o := quickOpts()
	b, err := Fig9b(o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Fig9c(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 7 || len(c.Rows) != 8 {
		t.Fatalf("rows: fig9b=%d fig9c=%d", len(b.Rows), len(c.Rows))
	}
	// Energy ratios must be below 1 for DeepUM on oversubscribed models
	// (first row is gpt2-xl).
	if !strings.HasPrefix(c.Rows[0][2], "0.") {
		t.Fatalf("DeepUM energy ratio on gpt2-xl = %v, want < 1", c.Rows[0])
	}
}

func TestTable5FaultReduction(t *testing.T) {
	tbl, err := Table5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// On the transformer rows DeepUM must reduce faults by a large factor.
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r[0], "gpt2") || strings.HasPrefix(r[0], "bert-large") {
			if r[3] == "-" {
				t.Fatalf("missing ratio for %v", r)
			}
		}
	}
}

func TestTable4Sizes(t *testing.T) {
	tbl, err := Table4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table 4")
	}
	for _, r := range tbl.Rows {
		if r[1] == "0" {
			t.Fatalf("zero correlation table size for %v", r)
		}
	}
}

func TestFig10AblationOrdering(t *testing.T) {
	o := quickOpts()
	tbl, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	gm := tbl.Rows[len(tbl.Rows)-1]
	// Normalized times must be below 1 (faster than UM) and cumulative
	// optimizations must not be slower on the geometric mean.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscan(s, &v); err != nil {
			t.Fatalf("bad gmean cell %q", s)
		}
		return v
	}
	p1, p2, p3 := parse(gm[1]), parse(gm[2]), parse(gm[3])
	if p1 >= 1 {
		t.Fatalf("prefetching alone did not beat UM: %v", gm)
	}
	if p3 > p2 || p2 > p1*1.05 {
		t.Fatalf("ablation ordering violated: %.2f %.2f %.2f", p1, p2, p3)
	}
}

func TestFig11DegreeSweep(t *testing.T) {
	o := quickOpts()
	tbl, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	// Two rows (speedup, energy) per workload; 3 quick workloads.
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
	// The N=8 column is the reference: all values exactly 1.00.
	for _, r := range tbl.Rows {
		if r[3] != "1.00" {
			t.Fatalf("reference column not 1.00: %v", r)
		}
	}
}

func TestFig13AndTable7Shapes(t *testing.T) {
	o := quickOpts()
	t13, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t13.Rows) != 5 { // 4 workloads + GMEAN
		t.Fatalf("fig13 rows = %d", len(t13.Rows))
	}
	// vDNN must fail on BERT (the "not work" of Table 7): its bert-large
	// cell is "-".
	bertRow := t13.Rows[1]
	if !strings.HasPrefix(bertRow[0], "bert-large") || bertRow[1] != "-" {
		t.Fatalf("vDNN should not work on BERT: %v", bertRow)
	}

	t7, err := Table7(o)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 2 searches; vDNN row must contain "not work" for BERT.
	for _, r := range t7.Rows {
		if r[0] == "vDNN" && r[2] != "not work" {
			t.Fatalf("vDNN table7 row = %v", r)
		}
	}
	// DeepUM row must be last and have numeric entries.
	last := t7.Rows[len(t7.Rows)-1]
	if last[0] != "DeepUM" || last[1] == "not work" {
		t.Fatalf("DeepUM table7 row = %v", last)
	}
}

func TestTable3MaxBatches(t *testing.T) {
	o := quickOpts()
	tbl, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 { // quick: gpt2-xl, gpt2-l
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// DeepUM's max batch must exceed LMS's on both transformers.
	for _, r := range tbl.Rows {
		lms, du := parseBatch(t, r[1]), parseBatch(t, r[2])
		if du <= lms {
			t.Fatalf("DeepUM max batch %d not above LMS %d for %s", du, lms, r[0])
		}
	}
}

func parseBatch(t *testing.T, s string) int64 {
	t.Helper()
	mult := int64(1)
	if strings.HasSuffix(s, "k") {
		mult = 1000
		s = strings.TrimSuffix(s, "k")
	}
	var v int64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("bad batch cell %q", s)
	}
	return v * mult
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 8 || o.Iterations != 4 || o.Warmup != 3 {
		t.Fatalf("normalized = %+v", o)
	}
}

func TestLabelFormatting(t *testing.T) {
	if label("dlrm", 96000) != "dlrm b96k" {
		t.Fatalf("label = %q", label("dlrm", 96000))
	}
	if label("gpt2-xl", 3) != "gpt2-xl b3" {
		t.Fatalf("label = %q", label("gpt2-xl", 3))
	}
}

func TestMaxFeasibleBatch(t *testing.T) {
	// Feasible below 37.
	got := maxFeasibleBatch(1, 100, func(b int64) bool { return b <= 37 })
	if got != 37 {
		t.Fatalf("max feasible = %d, want 37", got)
	}
	if maxFeasibleBatch(50, 100, func(b int64) bool { return b <= 37 }) != 0 {
		t.Fatal("infeasible floor must return 0")
	}
}
