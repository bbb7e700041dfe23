package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/sched"
)

func TestRecorderEventsMergedSorted(t *testing.T) {
	r := New(2, 4)
	r.Task(1, 3, sched.Comp1D, 3, -1, -1, 5*time.Microsecond, 9*time.Microsecond)
	r.Task(0, 0, sched.Factor, 0, -1, -1, 1*time.Microsecond, 4*time.Microsecond)
	r.Comm(0, KindSend, 2, 7, 128)
	r.Spill(1, 9, 4096)
	r.Phase(0, PhaseAssemble, 0, 1*time.Microsecond)

	ev := r.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatalf("events not sorted by start: %v after %v", ev[i].Start, ev[i-1].Start)
		}
	}
	if n := len(r.TaskEvents()); n != 2 {
		t.Fatalf("TaskEvents: got %d, want 2", n)
	}
	if r.P() != 2 {
		t.Fatalf("P: got %d, want 2", r.P())
	}
}

// chromeDoc mirrors the object-form trace-event JSON for schema validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   *float64       `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  *int           `json:"pid"`
		Tid  *int           `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	r := New(2, 0)
	r.Task(0, 0, sched.Comp1D, 0, -1, -1, 0, 3*time.Microsecond)
	r.Task(1, 1, sched.BMod, 2, 0, 1, 1*time.Microsecond, 2*time.Microsecond)
	r.Comm(1, KindRecv, 0, 0, 800)
	r.Phase(0, PhaseScale, 3*time.Microsecond, 4*time.Microsecond)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(doc.TraceEvents))
	}
	var complete, instant int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Cat == "" || e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required field: %+v", e)
		}
		switch e.Ph {
		case "X":
			complete++
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if complete != 3 || instant != 1 {
		t.Fatalf("got %d complete / %d instant events, want 3 / 1", complete, instant)
	}
}

// TaskEvents returns only the KindTask events, unsorted.
func (r *Recorder) TaskEvents() []Event {
	var out []Event
	for _, b := range r.procs {
		for _, e := range b.ev {
			if e.Kind == KindTask {
				out = append(out, e)
			}
		}
	}
	return out
}
