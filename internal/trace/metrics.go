package trace

// Lock-free observability primitives. The serving layer (internal/service)
// exposes these in the Prometheus text exposition format on GET /metrics;
// they are kept here, next to the tracing machinery, because the interesting runtime metrics — phase
// latencies, message traffic, model error — are exactly what the trace
// recorder and divergence report already measure.

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for Prometheus counter semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a fixed-bucket histogram safe for concurrent observation: bounds
// are the inclusive upper limits ("le") of each bucket, ascending, with an
// implicit +Inf bucket at the end.
type Hist struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHist returns a histogram over the given ascending upper bounds.
func NewHist(bounds ...float64) *Hist {
	h := &Hist{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	return h
}

// LatencyBuckets is the default per-phase latency bucket ladder: 100 µs to
// ~100 s, ×4 per step (seconds).
func LatencyBuckets() []float64 {
	return []float64{1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144, 104.8576}
}

// BatchBuckets is the bucket ladder for batched-request sizes.
func BatchBuckets() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64, 128} }

// Observe records one value.
func (h *Hist) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// WriteProm emits the histogram in the Prometheus text exposition format
// under the given metric name; labels, when non-empty, is a comma-separated
// label list without braces (e.g. `phase="analyze"`).
func (h *Hist) WriteProm(w io.Writer, name, labels string) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum); err != nil {
		return err
	}
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, lb, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, lb, h.Count())
	return err
}

// PromHeader writes the # HELP / # TYPE preamble for a metric.
func PromHeader(w io.Writer, name, typ, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// PromValue writes one sample line.
func PromValue(w io.Writer, name string, v int64) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, v)
	return err
}

// PromFloat writes one sample line for a float-valued gauge.
func PromFloat(w io.Writer, name string, v float64) error {
	_, err := fmt.Fprintf(w, "%s %g\n", name, v)
	return err
}
