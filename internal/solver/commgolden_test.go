package solver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/pastix-go/pastix/internal/blas"
)

// commGolden is the pinned output of one message-passing factorization: the
// sha256 of its factor bits and perturbation report, and the deterministic
// CommStats counters (MaxInFlight and the fault counters depend on timing or
// on an injector, so they are left out).
type commGolden struct {
	data                                     string
	messages, bytes, predicted, peakAUBBytes int64
}

func (g commGolden) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d}", g.data, g.messages, g.bytes, g.predicted, g.peakAUBBytes)
}

// commGoldenBound is the small fan-both AUB bound of the golden table.
const commGoldenBound = 2048

// TestCommGolden pins the message-passing drivers on every conformance
// matrix at P = 2 and 4, plus one complex128 mpsim leg: the factor bits and
// CommStats of mpsim (pure fan-in, and fan-both under a small AUB bound),
// whose factor follows its communication pattern instead of the sequential
// order, and the CommStats of fan-out, whose factor is checked bit for bit
// against the sequential reference instead of by hash. The conformance
// suite holds mpsim only to itself run to run and to 1e-11 of the
// reference, so a change to how its AUBs associate would pass there; it
// cannot pass here. The values were recorded once; every dense-kernel build
// (default, purego, GOAMD64=v3) reproduces them.
func TestCommGolden(t *testing.T) {
	got := map[string]commGolden{}
	for _, tc := range conformanceCorpus() {
		for _, P := range []int{2, 4} {
			an := analyzeFor(t, tc.a, P)
			var sp StaticPivot
			if tc.needsPivot {
				sp = StaticPivot{Epsilon: 1e-10}
			}
			name := fmt.Sprintf("%s/P=%d", tc.name, P)
			f, st, err := FactorizeParStats(an.A, an.Sched, ParOptions{Pivot: sp})
			if err != nil {
				t.Fatalf("%s mpsim: %v", name, err)
			}
			got[name+"/mpsim"] = goldenOf(f.Data, f.Pivots, st)
			f, st, err = FactorizeParStats(an.A, an.Sched, ParOptions{
				MaxAUBBytes: commGoldenBound, Pivot: StaticPivot{Epsilon: 1e-10},
			})
			if err != nil {
				t.Fatalf("%s mpsim bounded: %v", name, err)
			}
			got[name+"/mpsim-bound"] = goldenOf(f.Data, f.Pivots, st)
			if tc.needsPivot {
				continue // fan-out has no pivoting
			}
			f, st, err = an.FactorizeFanOut()
			if err != nil {
				t.Fatalf("%s fan-out: %v", name, err)
			}
			ref, err := FactorizeSeq(an.A, an.Sym)
			if err != nil {
				t.Fatalf("%s seq: %v", name, err)
			}
			bitwiseEqualData(t, ref.Data, f.Data, name+"/fanout")
			g := goldenOf(f.Data, f.Pivots, st)
			g.data = "" // checked bitwise against the reference above
			got[name+"/fanout"] = g
		}
	}
	for _, P := range []int{2, 4} {
		an, paz := zAnalyze(t, zHelmholtz(18, 18), P)
		zf, _, st, err := factorizePar(context.Background(), paz, an.Sched, ParOptions{}, 0)
		if err != nil {
			t.Fatalf("complex mpsim P=%d: %v", P, err)
		}
		got[fmt.Sprintf("complex-helmholtz-18x18/P=%d/mpsim", P)] = goldenOf(zf.Data, nil, st)
	}

	var bad []string
	for name, g := range got {
		if want, ok := commGoldens[name]; !ok || want != g {
			bad = append(bad, name)
		}
	}
	for name := range commGoldens {
		if _, ok := got[name]; !ok {
			bad = append(bad, name+" (not run)")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "\t%q: %v,\n", name, got[name])
		}
		t.Fatalf("factor bits or CommStats differ from the golden table for %v\nthis build gives:\n%s", bad, sb.String())
	}
}

// goldenOf hashes a factor's bits and report and copies the deterministic
// CommStats counters.
func goldenOf[T blas.Scalar](data [][]T, rep *PerturbationReport, st CommStats) commGolden {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, cell := range data {
		put(uint64(len(cell)))
		for _, w := range words(cell) {
			put(math.Float64bits(w))
		}
	}
	if rep != nil {
		for _, v := range []float64{rep.Epsilon, rep.NormMax, rep.Threshold, rep.PivotGrowth} {
			put(math.Float64bits(v))
		}
		for _, p := range rep.Perturbed {
			put(uint64(p.Column))
			put(math.Float64bits(p.Original))
			put(math.Float64bits(p.Used))
		}
	}
	return commGolden{
		data:     hex.EncodeToString(h.Sum(nil)),
		messages: st.Messages, bytes: st.Bytes, predicted: st.PredictedMessages, peakAUBBytes: st.PeakAUBBytes,
	}
}

var commGoldens = map[string]commGolden{
	"complex-helmholtz-18x18/P=2/mpsim": {"3e1a21b0a955f1fdcece2e783da7e5cd0733039ec8d33cb6de881549e860e827", 3, 3960, 3, 3888},
	"complex-helmholtz-18x18/P=4/mpsim": {"2e6d7583c5bc0091fc918a1d9a14f31cdc13c599d7071d8d7dbe9005eed443c0", 23, 23064, 23, 6672},
	"graded-singular/P=2/mpsim":         {"e4bb5b6eccde149c2d0cb62e4bef09946b9e4829581fa9e15b54d04ba53c1ec4", 0, 0, 0, 0},
	"graded-singular/P=2/mpsim-bound":   {"e4bb5b6eccde149c2d0cb62e4bef09946b9e4829581fa9e15b54d04ba53c1ec4", 0, 0, 0, 0},
	"graded-singular/P=4/mpsim":         {"e4bb5b6eccde149c2d0cb62e4bef09946b9e4829581fa9e15b54d04ba53c1ec4", 0, 0, 0, 0},
	"graded-singular/P=4/mpsim-bound":   {"e4bb5b6eccde149c2d0cb62e4bef09946b9e4829581fa9e15b54d04ba53c1ec4", 0, 0, 0, 0},
	"graded/P=2/fanout":                 {"", 0, 0, 0, 0},
	"graded/P=2/mpsim":                  {"7eacad10348cedf8ee0be0f7015963174fe4c94d00fd08d33ff855748d188d31", 0, 0, 0, 0},
	"graded/P=2/mpsim-bound":            {"a6677a13c31f08a64050cefd41df40621a8b0dcd53d29b845601c4e214975c6c", 0, 0, 0, 0},
	"graded/P=4/fanout":                 {"", 0, 0, 0, 0},
	"graded/P=4/mpsim":                  {"7eacad10348cedf8ee0be0f7015963174fe4c94d00fd08d33ff855748d188d31", 0, 0, 0, 0},
	"graded/P=4/mpsim-bound":            {"a6677a13c31f08a64050cefd41df40621a8b0dcd53d29b845601c4e214975c6c", 0, 0, 0, 0},
	"poisson2d-16x16/P=2/fanout":        {"", 9, 10704, 9, 0},
	"poisson2d-16x16/P=2/mpsim":         {"18917748cbe3d1345f6935f82bf46d7a20ae5bbd7b3070c2a3406b43a13dbf51", 8, 6208, 8, 3456},
	"poisson2d-16x16/P=2/mpsim-bound":   {"11105489a959c8034ff0069788e7418f89ecc557c417cfe26c34399bc365614a", 17, 16792, 8, 1280},
	"poisson2d-16x16/P=4/fanout":        {"", 24, 25448, 24, 0},
	"poisson2d-16x16/P=4/mpsim":         {"3c69556014a976a25349521fe47b4bad027e5afcd0ee2167d353264cb3d33a29", 24, 16896, 24, 4224},
	"poisson2d-16x16/P=4/mpsim-bound":   {"b56204dfdd865b6fcf8c059763ca36229e90bf36d4173fa9c76af94fb1021f89", 42, 37680, 24, 1920},
	"poisson3d-7/P=2/fanout":            {"", 33, 62624, 33, 0},
	"poisson3d-7/P=2/mpsim":             {"aeeb08d45c23bc7f23f7f9eeea2894c1c9f0c8c5ab7ff8019559fa09bee3e886", 34, 19192, 34, 6752},
	"poisson3d-7/P=2/mpsim-bound":       {"4f3124b2fa2f1a431123acf1ec1b10a1462735b19e1288ca672a212c54c26449", 154, 120096, 34, 2048},
	"poisson3d-7/P=4/fanout":            {"", 101, 150016, 101, 0},
	"poisson3d-7/P=4/mpsim":             {"6db390dbf9fee57cd26650f197fd6e4e3354e089a0ed69d5709a07d6c64f8a37", 152, 96368, 152, 18592},
	"poisson3d-7/P=4/mpsim-bound":       {"ec7e75767bda3a0a4145b54abcdfe3b5cb5918a2f37d47be222552f5b7c257a1", 587, 443128, 152, 2048},
	"randspd-seed1/P=2/fanout":          {"", 20, 44352, 20, 0},
	"randspd-seed1/P=2/mpsim":           {"e3a74256299c6f89e4fa275e0cceb7e08563a01350caafbde15e681afeb8c806", 65, 57168, 65, 21704},
	"randspd-seed1/P=2/mpsim-bound":     {"9834e9ee6cc360d13aea0b95d263569bdd56af6746561ca0a4391e04e3cbbca3", 444, 468704, 65, 2048},
	"randspd-seed1/P=4/fanout":          {"", 53, 134480, 53, 0},
	"randspd-seed1/P=4/mpsim":           {"7a415854620db32383d19fa1c78d0f7dcc724d9421db80cbd421dbaa618c0440", 231, 160896, 231, 27464},
	"randspd-seed1/P=4/mpsim-bound":     {"33fa957fb40f543019b5781540445a63cb2423b7b522431eeb3161281f2d14fa", 881, 813744, 231, 2048},
	"randspd-seed9/P=2/fanout":          {"", 23, 47744, 23, 0},
	"randspd-seed9/P=2/mpsim":           {"8363110fa2b884c8e2d749eed1ba9eb0d67e0cf7cb2e1ecdb1e7f2ee506a586a", 125, 87120, 125, 31968},
	"randspd-seed9/P=2/mpsim-bound":     {"762e1163fcf62a39b062cf762bb68502930ebddbdd812064f6991f98c398f0f5", 695, 602856, 125, 2048},
	"randspd-seed9/P=4/fanout":          {"", 68, 135816, 68, 0},
	"randspd-seed9/P=4/mpsim":           {"54bcfd57aad81624155edbadb7f9fef0250920534e092c56aa12336f9bc97679", 266, 193880, 266, 31968},
	"randspd-seed9/P=4/mpsim-bound":     {"eb280a0b8afc15d2eba08a446dea0fbf1463ae6f461ff3f37daea77acf093469", 1139, 996608, 266, 2048},
}
