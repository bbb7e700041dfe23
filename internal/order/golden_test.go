package order

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/sparse"
)

// The golden corpus: every matrix × option pair's Perm and SupernodeSizes
// are pinned by sha256 prefix. Persisted factors record their partition but
// not the permutation that produced it, so an ordering that drifts — even to
// an equally good one — would silently invalidate every stored factor. Any
// rewrite of the ordering, the subgraph extraction, the permutation or the
// matrix assembly must reproduce these hashes exactly.

type goldenMatrix struct {
	name string
	mk   func(t *testing.T) *sparse.SymMatrix
}

func goldenMatrices() []goldenMatrix {
	fixed := func(a func() *sparse.SymMatrix) func(*testing.T) *sparse.SymMatrix {
		return func(*testing.T) *sparse.SymMatrix { return a() }
	}
	return []goldenMatrix{
		{"poisson3d-24", fixed(func() *sparse.SymMatrix { return gen.Laplacian3D(24, 24, 24) })},
		{"poisson3d-12", fixed(func() *sparse.SymMatrix { return gen.Laplacian3D(12, 12, 12) })},
		{"poisson3d-17x9x13", fixed(func() *sparse.SymMatrix { return gen.Laplacian3D(17, 9, 13) })},
		{"poisson2d-64", fixed(func() *sparse.SymMatrix { return gen.Laplacian2D(64, 64) })},
		{"solid-6x3", fixed(func() *sparse.SymMatrix { return gen.Solid(6, 6, 6, 3) })},
		{"shell-20x6", fixed(func() *sparse.SymMatrix { return gen.Shell(20, 20, 6) })},
		{"thickshell-10x3x3", fixed(func() *sparse.SymMatrix { return gen.ThickShell(10, 10, 3, 3) })},
		{"MT1", func(t *testing.T) *sparse.SymMatrix {
			p, err := gen.Generate("MT1", 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return p.A
		}},
	}
}

var goldenOptions = []struct {
	name string
	opts Options
}{
	{"scotch", Options{Method: ScotchLike}},
	{"metis", Options{Method: MetisLike}},
	{"amd", Options{Method: PureAMD}},
	{"compress", Options{Method: ScotchLike, Compress: true}},
	{"multilevel", Options{Method: ScotchLike, Multilevel: true}},
	{"nohalo", Options{Method: ScotchLike, NoHalo: true}},
	{"leaf40", Options{Method: ScotchLike, LeafSize: 40}},
}

// goldenOrder maps "matrix/option" to the sha256 prefixes of Perm and of
// SupernodeSizes.
var goldenOrder = map[string][2]string{
	"poisson3d-24/scotch":          {"77cb78e330edd8c0", "f5aaad01167af799"},
	"poisson3d-24/metis":           {"2fc6832932007e12", "9dba8a987a8f490d"},
	"poisson3d-24/amd":             {"b6e512c8d0dce9c2", "0bcd69c902c56df9"},
	"poisson3d-24/compress":        {"77cb78e330edd8c0", "f5aaad01167af799"},
	"poisson3d-24/multilevel":      {"0638098de045956d", "a95584f9d646c405"},
	"poisson3d-24/nohalo":          {"039824d10564b4ec", "032acf723eeb2a45"},
	"poisson3d-24/leaf40":          {"9e18014a11581226", "7b5d7a94ce4b9603"},
	"poisson3d-12/scotch":          {"add035539510703c", "55ad1d5cd50bfeec"},
	"poisson3d-12/metis":           {"926e2a5f0f50a90c", "6762c288be411a32"},
	"poisson3d-12/amd":             {"372d1859812627f7", "a027703add537e49"},
	"poisson3d-12/compress":        {"add035539510703c", "55ad1d5cd50bfeec"},
	"poisson3d-12/multilevel":      {"6f491fd902ee108b", "349082c8c7cc670c"},
	"poisson3d-12/nohalo":          {"40a969424c49ec76", "3d30f88ecedc5457"},
	"poisson3d-12/leaf40":          {"563255947f57a20a", "9ccbe81e92e21196"},
	"poisson3d-17x9x13/scotch":     {"5425f0853131a8b8", "8e5a7aeec02e5922"},
	"poisson3d-17x9x13/metis":      {"d27b51c1c7824d94", "3c2a5da968ccaaa8"},
	"poisson3d-17x9x13/amd":        {"5c7fe3d1821e9bd3", "5d6ad96ec84a2e04"},
	"poisson3d-17x9x13/compress":   {"5425f0853131a8b8", "8e5a7aeec02e5922"},
	"poisson3d-17x9x13/multilevel": {"9b11ed26d2829a83", "4404060ff0f0d84a"},
	"poisson3d-17x9x13/nohalo":     {"8ab9dc8de6ba6321", "ed5029e77cb6dc82"},
	"poisson3d-17x9x13/leaf40":     {"b0a8e38c17f2bbfb", "1e5dead62b08dcf3"},
	"poisson2d-64/scotch":          {"58ca0b52cfd0e342", "ef3eecae10f33652"},
	"poisson2d-64/metis":           {"84ed55c619da673b", "4c0fa3d96d8d3855"},
	"poisson2d-64/amd":             {"0753aeafb8dedba9", "d6cdda0eca39c4fe"},
	"poisson2d-64/compress":        {"58ca0b52cfd0e342", "ef3eecae10f33652"},
	"poisson2d-64/multilevel":      {"0e729f0edcc400dd", "f6d6033d5a234d41"},
	"poisson2d-64/nohalo":          {"2223cb72d03bc239", "56ae3f05c69eb25c"},
	"poisson2d-64/leaf40":          {"6f04acad1e85ee9f", "e3c8c9fefcaab1df"},
	"solid-6x3/scotch":             {"9b8423f79850de56", "869e3fe06d16fbba"},
	"solid-6x3/metis":              {"30b1558044387e96", "6d8d38db89468210"},
	"solid-6x3/amd":                {"12623bf379cbe1e6", "a539d6266df3e98d"},
	"solid-6x3/compress":           {"d9f3a6d3fa363cd5", "c674e3e9f7330780"},
	"solid-6x3/multilevel":         {"e7abde1acf3b89e4", "21a5079c58d35dab"},
	"solid-6x3/nohalo":             {"2d4ec6075796aa8c", "b04b328e7d21b978"},
	"solid-6x3/leaf40":             {"ead2687820066f3e", "8101e00e1d8f817a"},
	"shell-20x6/scotch":            {"37fa7cd25b4f3581", "aa2d8d0c939d3594"},
	"shell-20x6/metis":             {"298575164bcd4c0e", "d503490d734148d6"},
	"shell-20x6/amd":               {"8425b71ced9eadaa", "81c84131be43a407"},
	"shell-20x6/compress":          {"995b3a267c58ee29", "8511342930a7eea0"},
	"shell-20x6/multilevel":        {"5df1095ee1a19709", "3aa684c02eed52d3"},
	"shell-20x6/nohalo":            {"ec7ee727adc7bd36", "c3cf8d725cea845b"},
	"shell-20x6/leaf40":            {"d3b66793ab6af6b0", "2cae8927ebcbf8a6"},
	"thickshell-10x3x3/scotch":     {"93508703681b468b", "a295508c9c38d558"},
	"thickshell-10x3x3/metis":      {"7603b09b1df40745", "4f66e4ba69b27c39"},
	"thickshell-10x3x3/amd":        {"985ec9310b830172", "7c7e14d9c96f5e59"},
	"thickshell-10x3x3/compress":   {"6ce40880234bfd20", "d65a1a5af3028f00"},
	"thickshell-10x3x3/multilevel": {"3bc49d9a7c1623e0", "abc944040a79d560"},
	"thickshell-10x3x3/nohalo":     {"861a92a4acbed3d9", "d744e4a69a8e5177"},
	"thickshell-10x3x3/leaf40":     {"2093f0e34ffb2fc8", "935057cddab2afda"},
	"MT1/scotch":                   {"d42a4d5d341f69ef", "ab306f86afc1ce6d"},
	"MT1/metis":                    {"2a4743bb82164e20", "83ca8d9eb941998a"},
	"MT1/amd":                      {"4223892d362ddacd", "15ad75cca23ed1f8"},
	"MT1/compress":                 {"8de82fff8d1ac487", "f03d6dbc620c245b"},
	"MT1/multilevel":               {"891da3e7b63a699f", "f5dff497cb60c08f"},
	"MT1/nohalo":                   {"b2892a5fb3b1e905", "d4aa3490e74ed302"},
	"MT1/leaf40":                   {"a77424670bd09fe7", "2737b8c994cced7e"},
}

// goldenPermute maps a matrix to the sha256 prefix of its ScotchLike
// Permute output (ColPtr, RowIdx and the Val bits).
var goldenPermute = map[string]string{
	"poisson3d-24":      "897a455aeeeebf00",
	"poisson3d-12":      "929086526083041d",
	"poisson3d-17x9x13": "213944e3383c338f",
	"poisson2d-64":      "572dc26f0540f5e6",
	"solid-6x3":         "9a5db0b907ed183c",
	"shell-20x6":        "a5aef9a64233d7d7",
	"thickshell-10x3x3": "136f777f1675cef2",
	"MT1":               "bc809e3261d913d4",
}

// goldenMM maps a matrix to the sha256 prefix of its WriteMatrixMarket
// bytes.
var goldenMM = map[string]string{
	"poisson3d-24":      "e4dd90af79fa1e17",
	"poisson3d-12":      "c674ffb364d4191d",
	"poisson3d-17x9x13": "a975bbed96d15905",
	"poisson2d-64":      "c7ee0d99bd7649ee",
	"solid-6x3":         "8c68c36f88ca35be",
	"shell-20x6":        "bd9dfba85d1e7807",
	"thickshell-10x3x3": "a8e48d587ba36466",
	"MT1":               "043f5cda00ac85dd",
}

func hashInts(xs ...[]int) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(x)))
		h.Write(b[:])
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashMatrix(a *sparse.SymMatrix) string {
	bits := make([]int, len(a.Val))
	for i, v := range a.Val {
		bits[i] = int(math.Float64bits(v))
	}
	return hashInts([]int{a.N}, a.ColPtr, a.RowIdx, bits)
}

func matrixGraph(a *sparse.SymMatrix) *graph.Graph {
	ptr, adj := a.AdjacencyCSR()
	return graph.FromCSR(a.N, ptr, adj)
}

func TestOrderingGolden(t *testing.T) {
	for _, m := range goldenMatrices() {
		a := m.mk(t)
		g := matrixGraph(a)
		for _, o := range goldenOptions {
			key := m.name + "/" + o.name
			ord := Compute(g, o.opts)
			if err := ord.Validate(a.N); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := [2]string{hashInts(ord.Perm), hashInts(ord.SupernodeSizes)}
			if want, ok := goldenOrder[key]; !ok || got != want {
				t.Errorf("%s: ordering hash %q, want %q", key, got, want)
			}
			if o.name != "scotch" {
				continue
			}
			if got, want := hashMatrix(a.Permute(ord.Perm)), goldenPermute[m.name]; got != want {
				t.Errorf("%s: Permute hash %q, want %q", m.name, got, want)
			}
		}
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, a, "golden\n"+m.name); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := hex.EncodeToString(sum[:])[:16], goldenMM[m.name]; got != want {
			t.Errorf("%s: MatrixMarket hash %q, want %q", m.name, got, want)
		}
	}
}
