package trace

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"github.com/pastix-go/pastix/internal/sched"
)

// msgName labels the runtime message taxonomy (the int8 kinds of
// mpsim.Message as assigned by internal/solver: the factorization protocol
// kinds 0–3; see docs/PROTOCOL.md).
func msgName(k int8) string {
	switch k {
	case 0:
		return "AUB"
	case 1:
		return "F-panel"
	case 2:
		return "diag"
	case 3:
		return "AUB-partial"
	}
	return fmt.Sprintf("msg%d", k)
}

func (e *Event) name() string {
	switch e.Kind {
	case KindTask:
		switch sched.TaskType(e.Aux) {
		case sched.Comp1D:
			return fmt.Sprintf("COMP1D c%d", e.Cell)
		case sched.Factor:
			return fmt.Sprintf("FACTOR c%d", e.Cell)
		case sched.BDiv:
			return fmt.Sprintf("BDIV c%d b%d", e.Cell, e.S)
		case sched.BMod:
			return fmt.Sprintf("BMOD c%d (%d,%d)", e.Cell, e.S, e.T)
		}
		return fmt.Sprintf("task %d", e.Task)
	case KindSend:
		return "send " + msgName(e.Aux)
	case KindRecv:
		return "recv " + msgName(e.Aux)
	case KindSpill:
		return "AUB spill"
	case KindPivot:
		return fmt.Sprintf("pivot:perturb col %d", e.Task)
	case KindFault:
		if int(e.Aux) < len(faultNames) {
			return "fault:" + faultNames[e.Aux]
		}
		return fmt.Sprintf("fault %d", e.Aux)
	case KindPhase:
		if int(e.Aux) < len(phaseNames) {
			return phaseNames[e.Aux]
		}
		return fmt.Sprintf("phase %d", e.Aux)
	}
	return fmt.Sprintf("event kind %d", e.Kind)
}

func (e *Event) category() string {
	switch e.Kind {
	case KindTask:
		return "task"
	case KindSend, KindRecv:
		return "comm"
	case KindSpill:
		return "memory"
	case KindPivot:
		return "pivot"
	case KindFault:
		return "fault"
	case KindPhase:
		return "phase"
	}
	return "other"
}

// WriteChromeTrace emits every recorded event in the Chrome trace-event JSON
// format (the object form: {"traceEvents": [...]}). Task and phase events
// become complete ("X") events with microsecond timestamps; sends, receives
// and spills become thread-scoped instant ("i") events carrying their byte
// counts in args. Load the file in chrome://tracing or ui.perfetto.dev; one
// track ("thread") per virtual processor.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	first := true
	for _, e := range r.Events() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		switch e.Kind {
		case KindTask:
			fmt.Fprintf(bw,
				`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"task":%d,"cell":%d,"s":%d,"t":%d}}`,
				e.name(), e.category(), us(e.Start), us(e.End-e.Start), e.Proc, e.Task, e.Cell, e.S, e.T)
		case KindPhase:
			fmt.Fprintf(bw,
				`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{}}`,
				e.name(), e.category(), us(e.Start), us(e.End-e.Start), e.Proc)
		default:
			fmt.Fprintf(bw,
				`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%.3f,"pid":0,"tid":%d,"args":{"bytes":%d,"tag":%d}}`,
				e.name(), e.category(), us(e.Start), e.Proc, e.Bytes, e.Task)
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
