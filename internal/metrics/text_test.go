package metrics

import (
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 1, 100} {
		h.Observe(v)
	}
	fams := []Family{
		{Name: "deepum_submissions_total", Help: "Run submissions by result.", Type: "counter", Series: []Series{
			{Labels: []string{"result", "accepted"}, Value: 3},
			{Labels: []string{"result", "queue_full"}, Value: 1},
		}},
		{Name: "deepum_committed_bytes", Help: "GPU memory committed to admitted runs.", Type: "gauge",
			Series: []Series{{Value: 1536}}},
		{Name: "deepum_run_seconds", Help: "Run wall time.", Type: "histogram", Series: []Series{{Hist: h}}},
		{Name: "deepum_pressure", Help: "Pressure.", Type: "gauge", Series: []Series{{Value: 0.25}}},
	}
	var b strings.Builder
	if err := Write(&b, fams); err != nil {
		t.Fatal(err)
	}
	want := `# HELP deepum_committed_bytes GPU memory committed to admitted runs.
# TYPE deepum_committed_bytes gauge
deepum_committed_bytes 1536
# HELP deepum_pressure Pressure.
# TYPE deepum_pressure gauge
deepum_pressure 0.25
# HELP deepum_run_seconds Run wall time.
# TYPE deepum_run_seconds histogram
deepum_run_seconds_bucket{le="0.1"} 1
deepum_run_seconds_bucket{le="1"} 3
deepum_run_seconds_bucket{le="10"} 3
deepum_run_seconds_bucket{le="+Inf"} 4
deepum_run_seconds_sum 101.55
deepum_run_seconds_count 4
# HELP deepum_submissions_total Run submissions by result.
# TYPE deepum_submissions_total counter
deepum_submissions_total{result="accepted"} 3
deepum_submissions_total{result="queue_full"} 1
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	var again strings.Builder
	if err := Write(&again, fams); err != nil || again.String() != want {
		t.Fatalf("second write differs (err %v):\n%s", err, again.String())
	}
}

// TestWriteMergesFamilies: families sharing a name render under one
// header, and WithLabels puts its pairs before each series' own labels.
func TestWriteMergesFamilies(t *testing.T) {
	own := []Family{{Name: "d_total", Help: "Dedup hits.", Type: "counter", Series: []Series{{Value: 2}}}}
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	shard := WithLabels([]Family{
		{Name: "d_total", Help: "Dedup hits.", Type: "counter", Series: []Series{{Value: 5}}},
		{Name: "w_seconds", Help: "Waits.", Type: "histogram", Series: []Series{{Labels: []string{"class", "x"}, Hist: h}}},
	}, "shard", "1")
	var b strings.Builder
	if err := Write(&b, append(own, shard...)); err != nil {
		t.Fatal(err)
	}
	want := `# HELP d_total Dedup hits.
# TYPE d_total counter
d_total 2
d_total{shard="1"} 5
# HELP w_seconds Waits.
# TYPE w_seconds histogram
w_seconds_bucket{shard="1",class="x",le="1"} 1
w_seconds_bucket{shard="1",class="x",le="+Inf"} 1
w_seconds_sum{shard="1",class="x"} 0.5
w_seconds_count{shard="1",class="x"} 1
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	err := Write(&b, []Family{{Name: "e_total", Help: "x", Type: "counter",
		Series: []Series{{Labels: []string{"path", "a\"b\\c\nd"}, Value: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

func TestHistogramCloneIsIndependent(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1.5)
	c := h.Clone()
	h.Observe(0.5)
	if c.Count != 1 || c.Counts[0] != 0 || c.Counts[1] != 1 {
		t.Fatalf("clone moved with its source: %+v", c)
	}
}
