package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/pastix-go/pastix/internal/sched"
)

// TaskDivergence joins one schedule task's modelled execution against its
// traced one. Modelled times are in the scheduling cost model's seconds
// (e.g. the SP2 profile); measured times are host wall-clock seconds from
// the trace epoch. NormError is the unit-free comparison: the measured
// duration divided by the modelled duration after rescaling modelled time so
// the total modelled busy work equals the total measured busy work — 1.0
// means the cost model priced this task exactly right relative to the rest
// of the run, 2.0 means the task ran twice as long as its relative price.
type TaskDivergence struct {
	Task       int
	Type       sched.TaskType
	Cell, S, T int
	Proc       int
	ModelStart float64 // modelled seconds
	ModelDur   float64
	MeasStart  float64 // wall seconds since trace epoch
	MeasDur    float64
	NormError  float64
}

// ProcDivergence compares one processor's modelled load against its measured
// busy/idle split.
type ProcDivergence struct {
	Proc      int
	ModelBusy float64 // modelled seconds of kernel work assigned by the schedule
	MeasBusy  float64 // wall seconds spent inside task execution
	MeasIdle  float64 // wall seconds of the measured makespan not spent in tasks
}

// Report is the predicted-vs-actual analysis of one traced execution.
type Report struct {
	P     int
	Tasks []TaskDivergence // ordered by schedule rank
	Procs []ProcDivergence

	// Makespans: the schedule's modelled parallel time (with fan-in message
	// aggregation replayed exactly) vs the measured span from the first task
	// start to the last task end.
	PredictedMakespan float64
	MeasuredMakespan  float64

	// TimeScale is measured-total-busy / modelled-total-busy: the factor that
	// converts modelled seconds into this host's wall seconds. NormError
	// fields are computed after applying it.
	TimeScale float64

	// MeanAbsNormError and MaxAbsNormError summarise |NormError − 1| over
	// tasks, duration-weighted and worst-case: how much the cost model lies
	// about relative task costs.
	MeanAbsNormError float64
	MaxAbsNormError  float64
	WorstTask        int // task id attaining MaxAbsNormError (-1 when empty)

	// Load balance: max/mean busy time across processors, modelled and
	// measured.
	ModelImbalance float64
	MeasImbalance  float64

	// Critical path: the modelled critical-path tasks re-priced at their
	// measured durations, vs the prediction. CritPathMeas close to
	// MeasuredMakespan means the same chain limited the real run.
	CritPathModel float64
	CritPathMeas  float64

	// Traffic observed by the runtime (zero under the shared-memory runtime,
	// which moves no messages).
	MsgsSent   int64
	BytesSent  int64
	SpillCount int64
	SpillBytes int64
}

// CompareOptions tunes CompareOpts.
type CompareOptions struct {
	// FreeMapping accepts traces from runtimes that do not honor the
	// schedule's task→processor mapping — the dynamic work-stealing runtime,
	// whose tasks run on whichever worker won them. Each ProcDivergence then
	// attributes ModelBusy to the SCHEDULED processor but MeasBusy/MeasIdle
	// to the worker that actually executed the task, so the busy/idle table
	// contrasts the planned distribution with the stolen one. Without it, a
	// task traced on a processor other than its scheduled one is an error.
	FreeMapping bool
}

// CompareOpts joins the recorder's task events against the static schedule
// that drove the run and returns the divergence report. Every KindTask event
// must reference a task of sch; tasks never traced (schedule not fully
// executed) are an error. opts tunes the join (see CompareOptions).
func CompareOpts(sch *sched.Schedule, rec *Recorder, opts CompareOptions) (*Report, error) {
	n := len(sch.Tasks)
	type meas struct {
		start, dur float64
		proc       int
		seen       bool
	}
	got := make([]meas, n)
	var firstStart, lastEnd float64
	first := true
	rp := &Report{P: sch.P, WorstTask: -1}
	for _, b := range rec.procs {
		for _, e := range b.ev {
			switch e.Kind {
			case KindTask:
				id := int(e.Task)
				if id < 0 || id >= n {
					return nil, fmt.Errorf("trace: task event id %d outside schedule (%d tasks)", id, n)
				}
				if got[id].seen {
					return nil, fmt.Errorf("trace: task %d traced twice", id)
				}
				s, en := e.Start.Seconds(), e.End.Seconds()
				got[id] = meas{start: s, dur: en - s, proc: int(e.Proc), seen: true}
				if first || s < firstStart {
					firstStart = s
				}
				if first || en > lastEnd {
					lastEnd = en
				}
				first = false
			case KindSend:
				rp.MsgsSent++
				rp.BytesSent += e.Bytes
			case KindSpill:
				rp.SpillCount++
				rp.SpillBytes += e.Bytes
			}
		}
	}
	for id := 0; id < n; id++ {
		if !got[id].seen {
			return nil, fmt.Errorf("trace: task %d of %d never traced (incomplete execution?)", id, n)
		}
	}

	// Scale: align total busy work so modelled and measured durations become
	// comparable per task.
	var modelBusy, measBusy float64
	for id := 0; id < n; id++ {
		modelBusy += sch.Tasks[id].End - sch.Tasks[id].Start
		measBusy += got[id].dur
	}
	if modelBusy > 0 {
		rp.TimeScale = measBusy / modelBusy
	}

	rp.Tasks = make([]TaskDivergence, n)
	order := make([]int, n)
	for i := range sch.Tasks {
		order[sch.Tasks[i].Rank] = i
	}
	var errSum float64
	for rank, id := range order {
		t := &sch.Tasks[id]
		md := t.End - t.Start
		d := TaskDivergence{
			Task: id, Type: t.Type, Cell: t.Cell, S: t.S, T: t.T, Proc: t.Proc,
			ModelStart: t.Start, ModelDur: md,
			MeasStart: got[id].start - firstStart, MeasDur: got[id].dur,
		}
		if md > 0 && rp.TimeScale > 0 {
			d.NormError = got[id].dur / (md * rp.TimeScale)
			ae := math.Abs(d.NormError - 1)
			errSum += ae * got[id].dur
			if ae > rp.MaxAbsNormError {
				rp.MaxAbsNormError = ae
				rp.WorstTask = id
			}
		}
		rp.Tasks[rank] = d
	}
	if measBusy > 0 {
		rp.MeanAbsNormError = errSum / measBusy
	}

	// Per-processor busy/idle.
	rp.MeasuredMakespan = lastEnd - firstStart
	rp.PredictedMakespan = sch.Replay()
	rp.Procs = make([]ProcDivergence, sch.P)
	for p := range rp.Procs {
		rp.Procs[p].Proc = p
	}
	for id := 0; id < n; id++ {
		t := &sch.Tasks[id]
		rp.Procs[t.Proc].ModelBusy += t.End - t.Start
		mp := got[id].proc
		if !opts.FreeMapping {
			if mp != t.Proc {
				return nil, fmt.Errorf("trace: task %d traced on proc %d but scheduled on %d (dynamic runtime? use FreeMapping)",
					id, mp, t.Proc)
			}
		} else if mp < 0 || mp >= len(rp.Procs) {
			return nil, fmt.Errorf("trace: task %d traced on proc %d outside [0,%d)", id, mp, len(rp.Procs))
		}
		rp.Procs[mp].MeasBusy += got[id].dur
	}
	var modelMax, modelSum, measMax, measSum float64
	for p := range rp.Procs {
		rp.Procs[p].MeasIdle = rp.MeasuredMakespan - rp.Procs[p].MeasBusy
		modelSum += rp.Procs[p].ModelBusy
		measSum += rp.Procs[p].MeasBusy
		if rp.Procs[p].ModelBusy > modelMax {
			modelMax = rp.Procs[p].ModelBusy
		}
		if rp.Procs[p].MeasBusy > measMax {
			measMax = rp.Procs[p].MeasBusy
		}
	}
	if modelSum > 0 {
		rp.ModelImbalance = modelMax / (modelSum / float64(sch.P))
	}
	if measSum > 0 {
		rp.MeasImbalance = measMax / (measSum / float64(sch.P))
	}

	// Critical path, model vs re-priced with measured durations.
	for _, id := range sch.CriticalPath() {
		rp.CritPathModel += sch.Tasks[id].End - sch.Tasks[id].Start
		rp.CritPathMeas += got[id].dur
	}
	return rp, nil
}

// Write renders the report for humans: headline makespans and model quality,
// the per-processor busy/idle table, and the worst-priced tasks.
func (rp *Report) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "predicted-vs-actual schedule divergence (%d processors, %d tasks)\n",
		rp.P, len(rp.Tasks))
	fmt.Fprintf(bw, "  makespan : predicted %.6fs (model units), measured %.6fs wall\n",
		rp.PredictedMakespan, rp.MeasuredMakespan)
	fmt.Fprintf(bw, "  scale    : 1 modelled second ≈ %.4g wall seconds on this host\n", rp.TimeScale)
	fmt.Fprintf(bw, "  model err: mean |err| %.1f%%, worst %.1f%% (task %d); err = measured/modelled task time after rescaling\n",
		100*rp.MeanAbsNormError, 100*rp.MaxAbsNormError, rp.WorstTask)
	fmt.Fprintf(bw, "  balance  : load imbalance modelled %.3f, measured %.3f (max/mean busy)\n",
		rp.ModelImbalance, rp.MeasImbalance)
	fmt.Fprintf(bw, "  crit path: modelled %.6fs; same chain measured %.6fs (measured makespan %.6fs)\n",
		rp.CritPathModel, rp.CritPathMeas, rp.MeasuredMakespan)
	if rp.MsgsSent > 0 || rp.SpillCount > 0 {
		fmt.Fprintf(bw, "  traffic  : %d messages, %d bytes sent; %d AUB spills (%d bytes)\n",
			rp.MsgsSent, rp.BytesSent, rp.SpillCount, rp.SpillBytes)
	}
	fmt.Fprintf(bw, "  %-5s %10s %10s %10s %10s\n", "proc", "model busy", "meas busy", "meas idle", "busy frac")
	for _, p := range rp.Procs {
		frac := 0.0
		if rp.MeasuredMakespan > 0 {
			frac = p.MeasBusy / rp.MeasuredMakespan
		}
		fmt.Fprintf(bw, "  P%-4d %10.6f %10.6f %10.6f %9.1f%%\n",
			p.Proc, p.ModelBusy, p.MeasBusy, p.MeasIdle, 100*frac)
	}
	// The tasks the cost model priced worst, weighted by measured time so
	// noise on microsecond tasks does not dominate.
	idx := make([]int, len(rp.Tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		wi := math.Abs(rp.Tasks[idx[i]].NormError-1) * rp.Tasks[idx[i]].MeasDur
		wj := math.Abs(rp.Tasks[idx[j]].NormError-1) * rp.Tasks[idx[j]].MeasDur
		return wi > wj
	})
	top := 8
	if len(idx) < top {
		top = len(idx)
	}
	if top > 0 {
		fmt.Fprintf(bw, "  worst-priced tasks (measured-time weighted):\n")
		fmt.Fprintf(bw, "  %-7s %-7s %5s %5s %12s %12s %8s\n",
			"task", "type", "cell", "proc", "model dur", "meas dur", "err")
		for _, i := range idx[:top] {
			d := &rp.Tasks[i]
			fmt.Fprintf(bw, "  %-7d %-7s %5d %5d %12.3e %12.3e %7.2fx\n",
				d.Task, d.Type, d.Cell, d.Proc, d.ModelDur, d.MeasDur, d.NormError)
		}
	}
	return bw.Flush()
}
