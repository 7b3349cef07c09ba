package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// A writer for the Prometheus text exposition format (version 0.0.4),
// with no dependency on the official client library. It keeps no counts:
// an owner builds its families at scrape time from the snapshot that holds
// its counts, so each count lives in one place.

// Family is one metric family: name, help text, type ("counter", "gauge"
// or "histogram") and series.
type Family struct {
	Name, Help, Type string
	Series           []Series
}

// Series is one sample of a family. Labels alternate names and values
// ("state", "queued", ...); a histogram family's series set Hist instead
// of Value.
type Series struct {
	Labels []string
	Value  float64
	Hist   *Histogram
}

// Histogram counts observations into fixed buckets. It has no lock: its
// owner guards it with the lock its other counts use.
type Histogram struct {
	Bounds []float64 // upper bounds, ascending; the +Inf bucket is implicit
	Counts []int64   // Counts[i] observations fell in bucket i (not cumulative)
	Count  int64
	Sum    float64
}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if i, _ := slices.BinarySearch(h.Bounds, v); i < len(h.Bounds) {
		h.Counts[i]++
	}
	h.Count++
	h.Sum += v
}

// Clone copies h, so a snapshot can be rendered after its owner's lock is
// released.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = slices.Clone(h.Counts)
	return &c
}

// WithLabels puts the given label pairs before every series' own labels
// and returns fams (a federation labels each shard's families with its
// ordinal).
func WithLabels(fams []Family, labels ...string) []Family {
	for _, f := range fams {
		for i := range f.Series {
			f.Series[i].Labels = append(slices.Clip(labels), f.Series[i].Labels...)
		}
	}
	return fams
}

// Write renders fams in name order. Families that share a name (a
// federation's own series and its shards') are written under one HELP and
// TYPE line, the first family's. Series keep the order they were built
// in, so two scrapes of unchanged counts return identical bytes.
func Write(w io.Writer, fams []Family) error {
	fams = slices.Clone(fams)
	slices.SortStableFunc(fams, func(a, b Family) int { return strings.Compare(a.Name, b.Name) })
	bw := bufio.NewWriter(w)
	for i, f := range fams {
		if i == 0 || fams[i-1].Name != f.Name {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		}
		for _, s := range f.Series {
			h := s.Hist
			if h == nil {
				writeSample(bw, f.Name, s.Labels, s.Value)
				continue
			}
			var cum int64
			for i, ub := range h.Bounds {
				cum += h.Counts[i]
				writeSample(bw, f.Name+"_bucket", append(slices.Clip(s.Labels), "le", formatValue(ub)), float64(cum))
			}
			writeSample(bw, f.Name+"_bucket", append(slices.Clip(s.Labels), "le", "+Inf"), float64(h.Count))
			writeSample(bw, f.Name+"_sum", s.Labels, h.Sum)
			writeSample(bw, f.Name+"_count", s.Labels, float64(h.Count))
		}
	}
	return bw.Flush()
}

// writeSample writes one line. %q escapes backslash, double quote and
// newline in label values as the exposition format requires.
func writeSample(w *bufio.Writer, name string, labels []string, v float64) {
	w.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		fmt.Fprintf(w, "%c%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 1 {
		w.WriteByte('}')
	}
	fmt.Fprintf(w, " %s\n", formatValue(v))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
