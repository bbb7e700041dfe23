package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around that call. Spans of one op share Op; Parent is the ID of the span
// that made the call (0 for the op's root span). Times are nanoseconds since
// the tracer's epoch.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	open  map[int64]span
	done  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int64]span{}}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	s := span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.open[id] = s
	t.mu.Unlock()
	return id
}

// end closes the span begun with id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := t.open[id]
	delete(t.open, id)
	s.End = now
	t.done = append(t.done, s)
	t.mu.Unlock()
}

// spans returns the closed spans.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...)
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every op, the self time of each layer: the summed
// durations of that op's spans with the layer's name, each minus the part
// of its interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[int64]map[string]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		if out[s.Op] == nil {
			out[s.Op] = map[string]time.Duration{}
		}
		out[s.Op][s.Name] += time.Duration(self)
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var sum, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			sum += iv[1] - a
			end = iv[1]
		}
	}
	return sum
}

// layerTotals returns, for every op, the summed duration of each layer's
// spans (wall time including children).
func layerTotals(spans []span) map[int64]map[string]time.Duration {
	out := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		if out[s.Op] == nil {
			out[s.Op] = map[string]time.Duration{}
		}
		out[s.Op][s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// Span propagation over HTTP: the client stamps each request with its op
// and span IDs, and spanHandler opens the server-side span under them.
const (
	opHeader     = "X-Perfbench-Op"
	parentHeader = "X-Perfbench-Parent"
)

// spanHandler wraps the service's public handler with a "service" span per
// request while a tracer is installed; it is only mounted in traced runs.
type spanHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
	id := tr.begin(op, parent, "service")
	h.inner.ServeHTTP(w, r)
	tr.end(id)
}
