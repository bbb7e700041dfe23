package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
	"unsafe"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/mpsim"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/trace"
)

// Message kinds of the factorization protocol (Fig. 1 of the paper).
const (
	msgAUB        int8 = iota // final aggregated update block: Tag = destination task
	msgF                      // solved panel W_T: Tag = source BDIV task
	msgDiag                   // factored diagonal block (L,D): Tag = cell
	msgAUBPartial             // partially aggregated update block (fan-both mode)
)

// ParOptions tunes the parallel factorization runtime.
type ParOptions struct {
	// Runtime selects the execution engine (see the Runtime constants).
	// RuntimeAuto (the zero value) keeps the historical dispatch: sequential
	// at P == 1 without tracing or faults, message-passing otherwise.
	Runtime Runtime
	// MaxAUBBytes bounds the memory a processor may hold in aggregation
	// buffers. When the bound is exceeded, the largest AUB is sent with
	// partial aggregation to free space — the paper's fan-both relaxation
	// ("if memory is a critical issue, an aggregated update block can be
	// sent with partial aggregation to free memory space; this is close to
	// the Fan-Both scheme"). Zero means unbounded (pure fan-in).
	MaxAUBBytes int64
	// Trace attaches an execution recorder: per-task execution intervals,
	// message sends/receives and AUB spills are recorded into it. Nil (the
	// default) disables tracing; every record site is behind a nil check so
	// the disabled path costs one pointer comparison per task.
	Trace *trace.Recorder
	// Faults injects deterministic message and worker faults (internal/faults)
	// and arms the mpsim reliability layer that recovers from them. Nil or an
	// inactive plan leaves the fault-free fast path untouched. Only the
	// message-passing runtime accepts it (the shared-memory runtimes have no
	// messages to corrupt and no isolated workers to crash).
	Faults *faults.Plan
	// Pivot enables static pivoting: pivots below τ = Epsilon·‖A‖_max are
	// substituted instead of aborting, and the factor carries a
	// PerturbationReport. The report is deterministic and identical across
	// the sequential, shared-memory and message-passing runtimes.
	Pivot StaticPivot
}

// CommStats reports the communication volume of an executed parallel
// factorization.
type CommStats struct {
	Messages    int64 // messages actually sent
	Bytes       int64 // payload bytes actually sent
	MaxInFlight int64 // peak simultaneously in-flight messages
	// PredictedMessages is what the static schedule implies for pure fan-in:
	// one AUB message per (source processor, destination task) pair plus the
	// diagonal-block and panel transfers. With MaxAUBBytes unset the executed
	// count equals this exactly.
	PredictedMessages int64
	// PeakAUBBytes is the largest memory any processor held in aggregation
	// buffers at once. Lowering ParOptions.MaxAUBBytes can only lower it
	// (the fan-both trade: more messages for less memory).
	PeakAUBBytes int64
	// Resends, Deduped and Restarts report the reliability layer's recovery
	// activity under fault injection: retransmissions of unacknowledged
	// messages, duplicate deliveries suppressed at admission, and crashed or
	// stalled workers restarted from their completion logs. All zero on the
	// fault-free path.
	Resends  int64
	Deduped  int64
	Restarts int64
}

// protoKey identifies an aggregation group: remote AUB contributions from
// one source processor to one destination task.
type protoKey struct{ sp, dt int }

// protocol holds the value-independent message plan derived from a schedule.
type protocol struct {
	contributors map[protoKey]int // remote AUB edges per (source proc, dst task)
	nAUBmsgs     []int            // distinct remote source procs per dst task
	sendTo       [][]int          // FACTOR: diag consumers; BDIV: F consumers (distinct remote procs)
	needF        []bool           // BMOD: W_T arrives by message
	needDiag     []bool           // BDIV: (L,D) arrives by message
	predicted    int64            // total messages in pure fan-in mode
}

func buildProtocol(sch *sched.Schedule) *protocol {
	nTasks := len(sch.Tasks)
	pr := &protocol{
		contributors: make(map[protoKey]int),
		nAUBmsgs:     make([]int, nTasks),
		sendTo:       make([][]int, nTasks),
		needF:        make([]bool, nTasks),
		needDiag:     make([]bool, nTasks),
	}
	for i := range sch.Tasks {
		sp := sch.Tasks[i].Proc
		seen := make(map[int]bool)
		for _, e := range sch.Tasks[i].Outs {
			dp := sch.Tasks[e.Dst].Proc
			switch e.Kind {
			case sched.EdgeAUB:
				if dp == sp {
					continue
				}
				k := protoKey{sp, e.Dst}
				if pr.contributors[k] == 0 {
					pr.nAUBmsgs[e.Dst]++
				}
				pr.contributors[k]++
			case sched.EdgeF:
				if dp != sp {
					pr.needF[e.Dst] = true
					if !seen[dp] {
						seen[dp] = true
						pr.sendTo[i] = append(pr.sendTo[i], dp)
					}
				}
			case sched.EdgeDiag:
				if dp != sp {
					pr.needDiag[e.Dst] = true
					if !seen[dp] {
						seen[dp] = true
						pr.sendTo[i] = append(pr.sendTo[i], dp)
					}
				}
			}
		}
	}
	pr.predicted = int64(len(pr.contributors))
	for i := range sch.Tasks {
		pr.predicted += int64(len(pr.sendTo[i]))
	}
	return pr
}

// factorizePar is the message-passing runtime for either scalar type, with
// static-pivot threshold tau (0 disables pivoting). It returns the gathered
// factor and the substitutions of every processor.
func factorizePar[T blas.Scalar](ctx context.Context, a *sparse.Sym[T], sch *sched.Schedule, popts ParOptions, tau float64) (*Storage[T], []Perturbation, CommStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, CommStats{}, err
	}
	sym := sch.Sym()
	P := sch.P
	pr := buildProtocol(sch)
	nAUBmsgs, sendTo, needF, needDiag := pr.nAUBmsgs, pr.sendTo, pr.needF, pr.needDiag

	stores := make([]*Storage[T], P)
	states := make([]*procState[T], P)
	// One substitution log for every processor. It outlives restarts, and a
	// replay resumes past completed diagonal tasks, so nothing is logged
	// twice.
	log := &pivotLog{}
	peaks := make([]int64, P)
	comm := mpsim.NewComm(P)
	if popts.Trace != nil {
		comm.SetTrace(popts.Trace)
	}
	var inj *faults.Injector
	if popts.Faults.Active() {
		var err error
		inj, err = faults.New(*popts.Faults)
		if err != nil {
			return nil, nil, CommStats{}, err
		}
		if popts.Trace != nil {
			inj.SetTrace(popts.Trace)
		}
		comm.EnableFaults(inj, popts.Faults.Reliability)
	}
	if done := ctx.Done(); done != nil {
		// The watcher closes the communicator on cancellation so processors
		// blocked in Recv unwind; it exits when the run finishes first.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				comm.Close()
			case <-stop:
			}
		}()
	}
	predicted := pr.predicted
	runErr := comm.Run(func(p int) error {
		// After an injected crash Run re-invokes this closure for the same p;
		// the surviving procState is the worker's completion log and replay
		// state, so a restarted worker resumes where it crashed instead of
		// re-executing (and re-sending) finished work.
		st := states[p]
		if st == nil {
			st = &procState[T]{
				p:        p,
				opts:     popts,
				sch:      sch,
				f:        newStorage[T](sym, false),
				comm:     comm,
				ctx:      ctx,
				done:     ctx.Done(),
				rec:      popts.Trace,
				inj:      inj,
				tau:      tau,
				log:      log,
				aubBuf:   make(map[int]map[int][]T),
				aubIn:    make(map[int][]aubContrib),
				aubRem:   make(map[int]int),
				aubGot:   make(map[int]int),
				fstore:   make(map[int][]T),
				diags:    make(map[int][]T),
				invd:     make(map[int][]T),
				nAUBmsgs: nAUBmsgs,
				sendTo:   sendTo,
				needF:    needF,
				needDiag: needDiag,
			}
			states[p] = st
			stores[p] = st.f
			for k, c := range pr.contributors {
				if k.sp == p {
					st.aubRem[k.dt] = c
				}
			}
		}
		err := st.run(a)
		peaks[p] = st.peakAUB
		return err
	})
	msgs, bytes, inflight := comm.Stats()
	fs := comm.FaultStats()
	stats := CommStats{
		Messages: msgs, Bytes: bytes, MaxInFlight: inflight, PredictedMessages: predicted,
		Resends: fs.Resends, Deduped: fs.Deduped, Restarts: fs.Restarts,
	}
	for p := 0; p < P; p++ {
		if peaks[p] > stats.PeakAUBBytes {
			stats.PeakAUBBytes = peaks[p]
		}
	}
	if runErr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, stats, cerr
		}
		if errors.Is(runErr, mpsim.ErrFaultBudget) {
			prog := make([]TaskProgress, P)
			for p := 0; p < P; p++ {
				prog[p] = TaskProgress{Total: len(sch.ByProc[p])}
				if states[p] != nil {
					prog[p].Done = states[p].next
				}
			}
			return nil, nil, stats, &FaultBudgetError{Progress: prog, Err: runErr}
		}
		return nil, nil, stats, runErr
	}

	// --- Gather the distributed factor into one full storage. ---
	// Each cell adopts the array of the processor that owns it (1D) or its
	// diagonal block (2D), and a 2D cell copies in the blocks other
	// processors own, so the factor is not held twice while it is gathered.
	g := newStorage[T](sym, false)
	for k := range sym.CB {
		w := sym.CB[k].Width()
		ld := g.LD[k]
		fp := sch.Tasks[sch.DiagTask(k)].Proc
		g.Data[k] = stores[fp].Data[k]
		for b, id := range sch.BDivOf[k] {
			// A 1D cell has no BDIV tasks (id -1): its owner holds it all.
			if id < 0 || sch.Tasks[id].Proc == fp {
				continue
			}
			src := stores[sch.Tasks[id].Proc].Data[k]
			lo := g.BlockOff[k][b]
			hi := lo + sym.CB[k].Blocks[b].Rows()
			for j := 0; j < w; j++ {
				copy(g.Data[k][lo+j*ld:hi+j*ld], src[lo+j*ld:hi+j*ld])
			}
		}
	}
	return g, log.perts, stats, nil
}

// procState is one virtual processor of the factorization.
type procState[T blas.Scalar] struct {
	p    int
	opts ParOptions
	sch  *sched.Schedule
	f    *Storage[T]
	comm *mpsim.Comm
	ctx  context.Context
	done <-chan struct{}  // ctx.Done(); nil when uncancellable
	rec  *trace.Recorder  // nil disables tracing
	inj  *faults.Injector // nil disables fault injection
	tau  float64          // static-pivot threshold; 0 disables pivoting
	log  *pivotLog        // the run's static-pivot substitutions

	// Completion log for crash recovery: assembly ran, and the index into
	// ByProc[p] of the next task to execute. A restarted worker replays from
	// here; everything before is already done and its sends already sit in
	// the communicator (which survives the restart).
	assembled bool
	next      int

	aubBytes int64 // bytes currently held in aggregation buffers
	peakAUB  int64 // high-water mark of aubBytes (after any spill)

	// aubBuf holds negated contribution accumulators per destination task,
	// keyed inside by target region (0 = the diagonal block of the target
	// cell, b+1 = its off-diagonal block b) — the paper's per-block AUB_jk.
	aubBuf map[int]map[int][]T
	// aubIn buffers received remote AUB payloads per destination task instead
	// of applying them on arrival: once every expected message is in, they are
	// applied in canonical order (sorted by source processor, arrival order
	// within one source). Floating-point addition is order-sensitive, so this
	// makes the factor bit-for-bit reproducible — in particular a chaos run
	// with delays, duplicates and restarts produces exactly the fault-free
	// factor.
	aubIn  map[int][]aubContrib
	aubRem map[int]int // dst task -> local contributions still to add
	aubGot map[int]int // dst task -> final AUB messages received
	fstore map[int][]T // BDIV task -> received W panel
	diags  map[int][]T // cell -> received (L,D) diagonal block (ld = w)
	invd   map[int][]T // cell -> 1/D cache

	nAUBmsgs []int
	sendTo   [][]int
	needF    []bool
	needDiag []bool
}

// cancelled is the between-tasks cancellation check: compute-bound
// processors (never blocked in Recv) observe ctx here.
func (st *procState[T]) cancelled() error {
	if st.done == nil {
		return nil
	}
	select {
	case <-st.done:
		return st.ctx.Err()
	default:
		return nil
	}
}

func (st *procState[T]) run(a *sparse.Sym[T]) error {
	if !st.assembled {
		if err := assembleOwned(st.f, a, st.sch, st.p, st.rec); err != nil {
			return err
		}
		st.assembled = true
	}

	tasks := st.sch.ByProc[st.p]
	for ; st.next < len(tasks); st.next++ {
		id := tasks[st.next]
		t := &st.sch.Tasks[id]
		if err := st.cancelled(); err != nil {
			return err
		}
		// Task boundary: stamp the heartbeat (so the supervisor can tell a
		// stall from progress) and let the injector fire any scheduled crash
		// or stall for this step before the task executes.
		if st.inj != nil {
			st.comm.Heartbeat(st.p)
			if err := st.inj.Boundary(st.p, st.next); err != nil {
				return err
			}
		}
		if err := st.waitInputs(id); err != nil {
			return err
		}
		// The trace interval starts after waitInputs so it measures execution
		// time only — idle (wait) time is what the divergence report derives
		// from the gaps, matching the schedule model's Start/End semantics.
		var start time.Duration
		if st.rec != nil {
			start = st.rec.Now()
		}
		var err error
		switch t.Type {
		case sched.Comp1D:
			err = st.execComp1D(t)
		case sched.Factor:
			err = st.execFactor(t)
		case sched.BDiv:
			err = st.execBDiv(t)
		case sched.BMod:
			err = st.execBMod(t)
		}
		if err != nil {
			return err
		}
		if st.rec != nil {
			st.rec.Task(st.p, id, t.Type, t.Cell, t.S, t.T, start, st.rec.Now())
		}
	}

	// Deferred panel scaling: owned panels and 2D blocks still hold W = L·D.
	scaleOwned(st.f, st.sch, st.p, st.cellDiagVec, st.rec)
	return nil
}

// waitInputs blocks until every message task id requires has arrived,
// handling (and applying) messages as they come.
func (st *procState[T]) waitInputs(id int) error {
	t := &st.sch.Tasks[id]
	satisfied := func() bool {
		if st.aubGot[id] < st.nAUBmsgs[id] {
			return false
		}
		switch t.Type {
		case sched.BDiv:
			if st.needDiag[id] {
				if _, ok := st.diags[t.Cell]; !ok {
					return false
				}
			}
		case sched.BMod:
			if st.needF[id] {
				if _, ok := st.fstore[st.sch.BDivOf[t.Cell][t.T]]; !ok {
					return false
				}
			}
		}
		return true
	}
	for !satisfied() {
		m, err := st.comm.Recv(st.p)
		if err != nil {
			return err
		}
		if err := st.handle(m); err != nil {
			return err
		}
	}
	return st.applyPending(id)
}

// aubContrib is one buffered remote AUB payload awaiting canonical-order
// application.
type aubContrib struct {
	src  int
	data []float64
}

// applyPending applies the buffered remote contributions of task id in
// canonical order: sorted by source processor, arrival order within one
// source (the stable sort keeps a fan-both partial before the final message
// from the same sender). Called once per task, after all expected final
// messages have arrived.
func (st *procState[T]) applyPending(id int) error {
	contribs := st.aubIn[id]
	if len(contribs) == 0 {
		return nil
	}
	delete(st.aubIn, id)
	sort.SliceStable(contribs, func(i, j int) bool { return contribs[i].src < contribs[j].src })
	for _, c := range contribs {
		if err := st.applyAUB(id, c.data); err != nil {
			return err
		}
	}
	return nil
}

func (st *procState[T]) handle(m mpsim.Message) error {
	switch m.Kind {
	case msgF:
		st.fstore[m.Tag] = scalars[T](m.Data)
	case msgDiag:
		st.diags[m.Tag] = scalars[T](m.Data)
	case msgAUB:
		st.aubIn[m.Tag] = append(st.aubIn[m.Tag], aubContrib{src: m.Src, data: m.Data})
		st.aubGot[m.Tag]++
	case msgAUBPartial:
		// Early (fan-both) flush: buffer but do not count; the final message
		// for the same destination is still to come.
		st.aubIn[m.Tag] = append(st.aubIn[m.Tag], aubContrib{src: m.Src, data: m.Data})
	default:
		return fmt.Errorf("solver: proc %d: unknown message kind %d", st.p, m.Kind)
	}
	return nil
}

// packAUB serializes the per-region accumulators of one destination into a
// single message payload: [nRegions, (regionId, elems)... , payloads...],
// the header in float64 words and each payload as the words of its scalars.
// Regions are sorted for determinism.
func packAUB[T blas.Scalar](regions map[int][]T) []float64 {
	ids := make([]int, 0, len(regions))
	total := 0
	for id, buf := range regions {
		ids = append(ids, id)
		total += len(buf)
	}
	sort.Ints(ids)
	hdr := 1 + 2*len(ids)
	out := make([]float64, hdr+total*wordsPer[T]())
	out[0] = float64(len(ids))
	payload := scalars[T](out[hdr:])
	pos := 0
	for r, id := range ids {
		out[1+2*r], out[2+2*r] = float64(id), float64(len(regions[id]))
		pos += copy(payload[pos:], regions[id])
	}
	return out
}

// wordsPer is the number of float64 words in one scalar of type T.
func wordsPer[T blas.Scalar]() int {
	var z T
	return int(unsafe.Sizeof(z)) / 8
}

// words views s as its float64 words (a complex128 is two: real, imaginary)
// without copying: message payloads are float64 words whatever the scalar.
func words[T blas.Scalar](s []T) []float64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&s[0])), len(s)*wordsPer[T]())
}

// scalars is the inverse view of words.
func scalars[T blas.Scalar](w []float64) []T {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&w[0])), len(w)/wordsPer[T]())
}

// applyAUB adds a received (negated-sum, region-packed) aggregated update
// block into the local regions of destination task dt.
func (st *procState[T]) applyAUB(dt int, buf []float64) error {
	if len(buf) == 0 {
		return nil // final message after a fan-both spill drained the buffer
	}
	t := &st.sch.Tasks[dt]
	sym := st.sch.Sym()
	cb := &sym.CB[t.Cell]
	w := cb.Width()
	st.f.EnsureCell(t.Cell)
	data := st.f.Data[t.Cell]
	ld := st.f.LD[t.Cell]
	nr := int(buf[0])
	if nr < 0 || len(buf) < 1+2*nr {
		return fmt.Errorf("solver: malformed AUB header for task %d", dt)
	}
	payload := scalars[T](buf[1+2*nr:])
	pos := 0
	for r := 0; r < nr; r++ {
		id := int(buf[1+2*r])
		elems := int(buf[2+2*r])
		if pos+elems > len(payload) {
			return fmt.Errorf("solver: truncated AUB payload for task %d", dt)
		}
		seg := payload[pos : pos+elems]
		pos += elems
		var off, rows int
		if id == 0 {
			off, rows = 0, w
		} else {
			b := id - 1
			if b < 0 || b >= len(cb.Blocks) {
				return fmt.Errorf("solver: AUB region %d out of range for cb %d", id, t.Cell)
			}
			off, rows = st.f.BlockOff[t.Cell][b], cb.Blocks[b].Rows()
		}
		if elems != rows*w {
			return fmt.Errorf("solver: AUB region %d size %d != %d×%d", id, elems, rows, w)
		}
		for j := 0; j < w; j++ {
			col := data[off+j*ld : off+j*ld+rows]
			srcCol := seg[j*rows : (j+1)*rows]
			for i := range col {
				col[i] += srcCol[i]
			}
		}
	}
	return nil
}

// cellDiagVec returns D of cell k, read from its diagonal block (diagRef).
func (st *procState[T]) cellDiagVec(k int) []T {
	l, ld := st.diagRef(k)
	d := make([]T, st.sch.Sym().CB[k].Width())
	for j := range d {
		d[j] = l[j+j*ld]
	}
	return d
}

func (st *procState[T]) cellInvD(k int) []T {
	if v, ok := st.invd[k]; ok {
		return v
	}
	inv := invert(st.cellDiagVec(k))
	st.invd[k] = inv
	return inv
}

// diagRef returns the diagonal block (for TRSM) of cell k: local storage or
// the received copy, with its leading dimension.
func (st *procState[T]) diagRef(k int) ([]T, int) {
	if st.sch.Tasks[st.sch.DiagTask(k)].Proc != st.p {
		return st.diags[k], st.sch.Sym().CB[k].Width()
	}
	return st.f.Data[k], st.f.LD[k]
}

func (st *procState[T]) execComp1D(t *sched.Task) error {
	k := t.Cell
	if err := factorDiag(st.f, k, st.tau, st.log, st.rec, st.p); err != nil {
		return err
	}
	st.f.SolvePanel(k)
	invd := invert(st.f.Diag(k))
	cb := &st.sch.Sym().CB[k]
	ld := st.f.LD[k]
	touched := map[int]bool{}
	for ti := range cb.Blocks {
		for si := ti; si < len(cb.Blocks); si++ {
			dt, err := st.routePair(k, si, ti,
				st.f.Data[k][st.f.BlockOff[k][si]:], ld,
				st.f.Data[k][st.f.BlockOff[k][ti]:], ld, invd)
			if err != nil {
				return err
			}
			if dt >= 0 {
				touched[dt] = true
			}
		}
	}
	st.flushAUBs(touched)
	return nil
}

func (st *procState[T]) execFactor(t *sched.Task) error {
	k := t.Cell
	if err := factorDiag(st.f, k, st.tau, st.log, st.rec, st.p); err != nil {
		return err
	}
	if dsts := st.sendTo[t.ID]; len(dsts) > 0 {
		w := st.sch.Sym().CB[k].Width()
		ld := st.f.LD[k]
		buf := make([]T, w*w)
		for j := 0; j < w; j++ {
			copy(buf[j*w+j:j*w+w], st.f.Data[k][j*ld+j:j*ld+w])
		}
		for _, q := range dsts {
			st.comm.Send(mpsim.Message{Kind: msgDiag, Src: st.p, Dst: q, Tag: k, Data: words(buf)})
		}
	}
	return nil
}

func (st *procState[T]) execBDiv(t *sched.Task) error {
	k := t.Cell
	cb := &st.sch.Sym().CB[k]
	w := cb.Width()
	rb := cb.Blocks[t.S].Rows()
	l, ldl := st.diagRef(k)
	solveBlock(st.f, k, t.S, l, ldl)
	off := st.f.BlockOff[k][t.S]
	if dsts := st.sendTo[t.ID]; len(dsts) > 0 {
		buf := make([]T, rb*w)
		for j := 0; j < w; j++ {
			copy(buf[j*rb:(j+1)*rb], st.f.Data[k][off+j*st.f.LD[k]:off+j*st.f.LD[k]+rb])
		}
		for _, q := range dsts {
			st.comm.Send(mpsim.Message{Kind: msgF, Src: st.p, Dst: q, Tag: t.ID, Data: words(buf)})
		}
	}
	return nil
}

func (st *procState[T]) execBMod(t *sched.Task) error {
	k := t.Cell
	sym := st.sch.Sym()
	cb := &sym.CB[k]
	ldk := st.f.LD[k]
	ws := st.f.Data[k][st.f.BlockOff[k][t.S]:]
	var wt []T
	var ldt int
	bdivT := st.sch.BDivOf[k][t.T]
	if st.sch.Tasks[bdivT].Proc == st.p {
		wt = st.f.Data[k][st.f.BlockOff[k][t.T]:]
		ldt = ldk
	} else {
		wt = st.fstore[bdivT]
		ldt = cb.Blocks[t.T].Rows()
	}
	dt, err := st.routePair(k, t.S, t.T, ws, ldk, wt, ldt, st.cellInvD(k))
	if err != nil {
		return err
	}
	if dt >= 0 {
		st.flushAUBs(map[int]bool{dt: true})
	}
	return nil
}

// routePair computes the (s,t) contribution of cell k from W_s (lda) and
// W_t (ldb) and either subtracts it directly from the locally owned target
// region or accumulates it (negated) into the AUB for the destination task.
// It returns the destination task id when the contribution was remote (so
// the caller can decrement the AUB countdown), -1 otherwise.
func (st *procState[T]) routePair(k, s, t int, ws []T, lda int, wt []T, ldb int, invd []T) (int, error) {
	dt := st.sch.UpdateTask(k, s, t)
	if st.sch.Tasks[dt].Proc == st.p {
		// Direct local subtraction into the owned region.
		return -1, updateCell(st.f, k, s, t, ws, lda, invd, wt, ldb)
	}
	g, err := updateTarget(st.f, k, s, t)
	if err != nil {
		return -1, err
	}
	// Accumulate into the per-region AUB of the destination task: the region
	// is the target cell's diagonal block (id 0) when the rows lie in its
	// columns, otherwise the off-diagonal block covering them (id b+1) — the
	// paper's AUB_jk granularity. A region buffer is the region alone, so
	// its leading dimension is the region's row count.
	fcb := &st.sch.Sym().CB[g.Cell]
	region, row, rows := 0, g.Row, fcb.Width()
	if g.Block >= 0 {
		region, row, rows = g.Block+1, g.Row-st.f.BlockOff[g.Cell][g.Block], fcb.Blocks[g.Block].Rows()
	}
	regions := st.aubBuf[dt]
	if regions == nil {
		regions = make(map[int][]T)
		st.aubBuf[dt] = regions
	}
	buf := regions[region]
	if buf == nil {
		buf = make([]T, rows*fcb.Width())
		regions[region] = buf
		st.aubBytes += st.bytes(len(buf))
		st.spill(dt)
		if st.aubBytes > st.peakAUB {
			st.peakAUB = st.aubBytes
		}
	}
	update(&st.sch.Sym().CB[k], s, t, ws, lda, invd, wt, ldb, buf[row+g.Col*rows:], rows)
	return dt, nil
}

// regionsSize returns the accumulated elements of one destination's regions.
func regionsSize[T blas.Scalar](regions map[int][]T) int {
	t := 0
	for _, b := range regions {
		t += len(b)
	}
	return t
}

// flushAUBs decrements the countdown of each touched remote destination and
// sends the AUB as soon as it is complete ("if ready, send" in Fig. 1). The
// final message is sent even when the buffer was already spilled (fan-both):
// the receiver counts only final messages.
func (st *procState[T]) flushAUBs(touched map[int]bool) {
	for dt := range touched {
		st.aubRem[dt]--
		if st.aubRem[dt] == 0 {
			regions := st.aubBuf[dt]
			delete(st.aubBuf, dt)
			delete(st.aubRem, dt)
			var data []float64
			if len(regions) > 0 {
				st.aubBytes -= st.bytes(regionsSize(regions))
				data = packAUB(regions)
			}
			st.comm.Send(mpsim.Message{
				Kind: msgAUB, Src: st.p, Dst: st.sch.Tasks[dt].Proc, Tag: dt, Data: data,
			})
		}
	}
}

// bytes is the memory held by n scalars.
func (st *procState[T]) bytes(n int) int64 { return int64(n*wordsPer[T]()) * 8 }

// spill enforces the fan-both memory bound: while aggregation buffers exceed
// MaxAUBBytes, the largest buffer other than keep is sent with partial
// aggregation and freed.
func (st *procState[T]) spill(keep int) {
	if st.opts.MaxAUBBytes <= 0 {
		return
	}
	for st.aubBytes > st.opts.MaxAUBBytes {
		victim, size := -1, 0
		for dt, regions := range st.aubBuf {
			// Largest buffer first; ties broken by task id so the spill
			// sequence (and hence the peak-memory stat) is deterministic
			// despite map iteration order.
			if s := regionsSize(regions); dt != keep && (s > size || (s == size && victim >= 0 && dt < victim)) {
				victim, size = dt, s
			}
		}
		if victim < 0 {
			return // nothing else to spill; the bound is best-effort
		}
		regions := st.aubBuf[victim]
		delete(st.aubBuf, victim)
		st.aubBytes -= st.bytes(regionsSize(regions))
		if st.rec != nil {
			st.rec.Spill(st.p, victim, st.bytes(regionsSize(regions)))
		}
		st.comm.Send(mpsim.Message{
			Kind: msgAUBPartial, Src: st.p, Dst: st.sch.Tasks[victim].Proc, Tag: victim, Data: packAUB(regions),
		})
	}
}
