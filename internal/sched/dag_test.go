package sched

import (
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

func TestNewDAGValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		ok    bool
	}{
		{"empty", 0, nil, true},
		{"chain", 3, [][2]int{{0, 1}, {1, 2}}, true},
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, true},
		{"parallel-edges", 2, [][2]int{{0, 1}, {0, 1}}, true},
		{"negative-n", -1, nil, false},
		{"dst-out-of-range", 2, [][2]int{{0, 5}}, false},
		{"src-out-of-range", 2, [][2]int{{-1, 0}}, false},
		{"self-loop", 2, [][2]int{{1, 1}}, false},
		{"two-cycle", 2, [][2]int{{0, 1}, {1, 0}}, false},
		{"three-cycle", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDAG(tc.n, tc.edges)
			if tc.ok && err != nil {
				t.Fatalf("NewDAG: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("NewDAG accepted invalid graph")
				}
				return
			}
			if d.NTasks() != tc.n {
				t.Fatalf("NTasks = %d, want %d", d.NTasks(), tc.n)
			}
			in := d.InDegrees()
			want := make([]int32, tc.n)
			for _, e := range tc.edges {
				want[e[1]]++
			}
			for i := range want {
				if in[i] != want[i] {
					t.Fatalf("InDegrees[%d] = %d, want %d", i, in[i], want[i])
				}
			}
		})
	}
}

// TestScheduleDAG checks that the DAG extracted from a real schedule carries
// exactly the schedule's edges and a priority consistent with the mapper's
// depth-first preference.
func TestScheduleDAG(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	_, sch := buildSchedule(t, a, 4, 24)
	d := sch.DAG()
	if d.NTasks() != len(sch.Tasks) {
		t.Fatalf("DAG has %d tasks, schedule %d", d.NTasks(), len(sch.Tasks))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("schedule DAG invalid: %v", err)
	}
	// Same in-degrees as the schedule's own edge lists.
	want := make([]int32, len(sch.Tasks))
	for i := range sch.Tasks {
		for _, e := range sch.Tasks[i].Outs {
			want[e.Dst]++
		}
	}
	got := d.InDegrees()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: DAG in-degree %d, schedule %d", i, got[i], want[i])
		}
	}
	// Edges preserved one-for-one.
	for i := range sch.Tasks {
		if len(d.Outs[i]) != len(sch.Tasks[i].Outs) {
			t.Fatalf("task %d: %d DAG out-edges, schedule has %d", i, len(d.Outs[i]), len(sch.Tasks[i].Outs))
		}
		for j, e := range sch.Tasks[i].Outs {
			if int(d.Outs[i][j]) != e.Dst {
				t.Fatalf("task %d edge %d: DAG dst %d, schedule %d", i, j, d.Outs[i][j], e.Dst)
			}
		}
	}
	// Priority encodes depth in the high bits: a leaf supernode's COMP1D must
	// outrank the root cell's tasks.
	deepest, shallowest := int64(-1), int64(1)<<62
	for i := range sch.Tasks {
		if d.Priority[i] > deepest {
			deepest = d.Priority[i]
		}
		if d.Priority[i] < shallowest {
			shallowest = d.Priority[i]
		}
	}
	if deepest>>32 <= shallowest>>32 {
		t.Fatalf("priorities carry no depth spread: max %d min %d", deepest, shallowest)
	}
}
