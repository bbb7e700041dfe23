package solver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/lowrank"
)

// solveGolden pins the sha256 of the solution bits per case and leg (see
// TestSolveGolden). An entry changes only with a deliberate change of the
// solve's arithmetic, recorded in CHANGES.md.
var solveGolden = map[string]string{
	"poisson2d-14x14/seq":       "096753e517a4a457c94b62e34820f9c817f45166c31ae777ac863624a0091506",
	"poisson2d-14x14/engine":    "1cbbeeb9fcbc8f9e287d8e35ec90d4ea29cec1c6791d01ec108f76f0937393f4",
	"poisson2d-14x14/blr":       "5c4ab7a3cba50921e2f4914b181f11ef6b4eba768f976bf8d81529f0b1f2445f",
	"poisson3d-6/seq":           "89a998b60b789bc4552b3f4129afe4b1fd7b7ec8b03e3adc3b0fe05d5bd449bb",
	"poisson3d-6/engine":        "ec2905a718a0cbd5360e0fc11d163fbc0ae4392bdea327bd00391d3990699532",
	"poisson3d-6/blr":           "1e2e471b4a5c14e4c1d122a93eebeff6692b42414d1ad7d279fdf2f4bca6d7e7",
	"shell-8x8x3/seq":           "a4e8dd8633d234e2d130e2a3c1c5de60891a78479b731f165a18b8426ddf3330",
	"shell-8x8x3/engine":        "d33031eeae02d1debc2195cb12acd2b1303cf4e8290d2b9bc5ca53924da72aaf",
	"shell-8x8x3/blr":           "d1af2c073d460e480db1c2a40d51dfdae17371514917aaad0089dfcd236fd753",
	"solid-4x4x4x3/seq":         "32311081ace302a8e0ab9b512290bc282c12215430a6aea3e434d1bea2ac6ccb",
	"solid-4x4x4x3/engine":      "d6e3bd407b2afc41ed1c27df042a50074cc61e09418376d8c285d96f92a8486d",
	"solid-4x4x4x3/blr":         "eb3a7e09aedfd426430154d68dec3f2e8f84058871c791f5150ab2a263457196",
	"thickshell-6x6x2x3/seq":    "d9bd2792bde793c84b899164331961273d731505173c4cd7dc202bb9ea5fc99a",
	"thickshell-6x6x2x3/engine": "ffd4ba14cc9984a1d4f72862decd77e1c0c270404d4c7f72738bbacb1b29ace8",
	"thickshell-6x6x2x3/blr":    "12d67a59ab6dff10a4652bce74ed892ec9c8b637ec9964cc16cf76f01a02bbeb",
	"graded/seq":                "cfbfd961ab41b82d2ec413fef9df7a0bb2b05e6936c8d7728d65c1edc784d1eb",
	"graded/engine":             "78099d2dce83afba542323d7e77f531f729ae84a007474f1f241f3b0f8a04f27",
	"graded/blr":                "4247cb08d601dbf593591870e98ea05f2626c04e4c36aac05052a504414f4969",
	"randspd-seed5/seq":         "e405f09b5c6b172089c4bbcfd901d2eb363c38ef1930e69716b2d517f44511c9",
	"randspd-seed5/engine":      "3732fe4e68987a1e795be34a47cee09c814cf6cde47f7a6c7815dfb3fbac4877",
	"randspd-seed5/blr":         "ae159cf489e52e62aff2e5ed4c103e358128ff863489c1ef12d78e80f97482e6",
	"poisson3d-12/seq":          "9e8d4ed2a3e293bc4ed6067a465d231cd0e5199c92a2421936e3a72f4f4d58b0",
	"poisson3d-12/engine":       "a002381918e46bd68a33ce21fdd1866eb84bcf0f6546c31fca679b1c055c9cee",
	"poisson3d-12/blr":          "f85194c224e4786df657c95e334246162fabe7cf8404ba5e17c5cc54b570bc83",
}

// bitsDigest returns the hex sha256 of the little-endian bits of every
// vector in turn.
func bitsDigest(vs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveGolden pins the solution bits themselves, where the bitwise
// tables only pin the engines against the reference: over the conformance
// corpus and Poisson 12³, the digest of Factors.Solve on three right-hand
// sides ("seq"), of the level-set engine on 1, 2 and 4 workers at one and
// three right-hand sides ("engine"), and of both on the BLR-compressed
// factor ("blr"). The engine and the reference share their cell routines,
// so a kernel change that moves both passes every engine-vs-reference
// table; it fails here. Every build (default, purego, GOAMD64=v3) must give
// these digests.
func TestSolveGolden(t *testing.T) {
	cases := solveConformanceCorpus()
	cases = append(cases, solveConformanceCase{"poisson3d-12", gen.Laplacian3D(12, 12, 12)})
	const nrhs = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an := analyzeFor(t, tc.a, 4)
			n := tc.a.N
			_, b := gen.RHSForSolution(tc.a)
			panel := make([]float64, n*nrhs)
			for newI, old := range an.Perm {
				for c := 0; c < nrhs; c++ {
					panel[newI+c*n] = b[old] * (1 + float64(c)/3)
				}
			}
			f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			blr, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			blr.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
			seqCols := func(f *Factors) [][]float64 {
				xs := make([][]float64, nrhs)
				for c := range xs {
					xs[c] = f.Solve(panel[c*n : (c+1)*n])
				}
				return xs
			}
			engine := func(f *Factors, workers []int) [][]float64 {
				var xs [][]float64
				for _, w := range workers {
					for _, k := range []int{1, nrhs} {
						x, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(w), f, panel[:n*k], LevelOptions{NRHS: k})
						if err != nil {
							t.Fatal(err)
						}
						xs = append(xs, x)
					}
				}
				return xs
			}
			got := map[string]string{
				"seq":    bitsDigest(seqCols(f)...),
				"engine": bitsDigest(engine(f, []int{1, 2, 4})...),
				"blr":    bitsDigest(append(seqCols(blr), engine(blr, []int{2})...)...),
			}
			for _, leg := range []string{"seq", "engine", "blr"} {
				key := tc.name + "/" + leg
				if want := solveGolden[key]; got[leg] != want {
					t.Errorf("%s: digest %s, want %s", key, got[leg], want)
				}
			}
		})
	}
}
