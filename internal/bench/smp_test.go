package bench

import (
	"testing"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/solver"
)

// SMPAblate quantifies topology-aware scheduling on an SMP cluster (the
// paper's stated next step): both schedules are evaluated on the same SMP
// machine (nodes of nodeSize processors with shared-memory-like intra-node
// links); "aware" was built knowing the topology, "flat" was built with the
// flat network model.
func SMPAblate(name string, scale float64, p, nodeSize int) (aware, flat float64, err error) {
	prob, err := gen.Generate(name, scale)
	if err != nil {
		return 0, 0, err
	}
	smp := cost.SP2().WithSMPNodes(nodeSize)
	awareAn, err := solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 4},
		Machine:  smp,
	})
	if err != nil {
		return 0, 0, err
	}
	flatAn, err := solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 4},
	})
	if err != nil {
		return 0, 0, err
	}
	return awareAn.Sched.Replay(), flatAn.Sched.ReplayOn(smp), nil
}

func TestSMPAwareSchedulingHelps(t *testing.T) {
	aware, flat, err := SMPAblate("BMWCRA1", 0.1, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if aware <= 0 || flat <= 0 {
		t.Fatal("missing results")
	}
	// Topology-aware scheduling must not be (much) worse than flat; it is
	// usually better because AUB routes stay on-node.
	if aware > flat*1.05 {
		t.Fatalf("SMP-aware schedule (%g) worse than flat (%g)", aware, flat)
	}
	t.Logf("aware=%gs flat=%gs gain=%.1f%%", aware, flat, 100*(flat-aware)/flat)
}
