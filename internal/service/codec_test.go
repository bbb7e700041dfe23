package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pastix-go/pastix"
)

// jsonEncode is the reference the hand-written encoder must match: what
// json.Encoder wrote for every response before the codec existed.
func jsonEncode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	var vals []float64
	for _, edge := range []float64{1e-7, 1e-6, 1e20, 1e21} {
		vals = append(vals, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	vals = append(vals, 0, math.Copysign(0, -1), 1, 0.1, 1.0/3, 123456789, 1e-9, 1.5e-300, 2e300,
		math.SmallestNonzeroFloat64, 3*math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, 1e308)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		for _, f := range []float64{v, -v} {
			if !finite(f) {
				continue
			}
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
				t.Errorf("%b: appendJSONFloat %s, encoding/json %s", f, got, want)
			}
		}
	}
}

func TestAppendSolveResponseMatchesEncodingJSON(t *testing.T) {
	full := solveResponse{
		X:       []float64{1, math.Copysign(0, -1), 1e-7, 1e21, math.SmallestNonzeroFloat64, -math.MaxFloat64},
		NRHS:    3,
		Batched: 2,
		SolveMS: 0.125,
		Plan: &pastix.PlanStats{Workers: 2, Cells: 40, Levels: 8, ParallelSteps: 4, ChainSteps: 3,
			ChainCells: 5, SplitCells: 2, MaxLevelWidth: 9, Cutoff: 64},
		Degraded:         true,
		PerturbedColumns: []int{0, 17},
		BackwardError:    2.5e-17,
		RefineIters:      2,
	}
	cases := []solveResponse{{}, {X: []float64{}}, {X: []float64{0.5}, Batched: 1, SolveMS: 1e-9}, full}
	// Random values fill every field, so a field added to solveResponse
	// without a matching encoder line fails here.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		v, ok := quick.Value(reflect.TypeOf(solveResponse{}), rng)
		if !ok {
			t.Fatal("quick.Value cannot generate a solveResponse")
		}
		cases = append(cases, v.Interface().(solveResponse))
	}
	for _, resp := range cases {
		got, err := appendSolveResponse(nil, &resp)
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if want := jsonEncode(t, resp); string(got) != want {
			t.Fatalf("appendSolveResponse\n%s\nencoding/json\n%s", got, want)
		}
	}
}

func TestAppendSolveResponseNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := appendSolveResponse(nil, &solveResponse{X: []float64{1, bad}}); err != errNonFinite {
			t.Errorf("x holding %v: error %v, want errNonFinite", bad, err)
		}
		_, err := appendSolveResponse(nil, &solveResponse{X: []float64{1}, BackwardError: bad})
		if err == nil || err == errNonFinite {
			t.Errorf("backward_error %v: error %v, want an encode error", bad, err)
		}
	}
}

// The canonical body json.Marshal writes takes the single-pass parser and
// costs two allocations (the handle string and b); any whitespace inside the
// object sends it to json.Unmarshal.
func TestParseSolveRequestCanonical(t *testing.T) {
	want := solveRequest{Handle: "f-1a2b", B: []float64{1, -0.5, 1e-7, 3e300}, DeadlineMS: 250}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got solveRequest
	if !parseSolveRequest(body, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical body %s: parsed %+v, want %+v", body, got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { parseSolveRequest(body, &got) }); allocs > 2 {
		t.Errorf("fast path made %v allocations per body, want ≤ 2", allocs)
	}
	indented, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if parseSolveRequest(indented, &got) {
		t.Errorf("indented body took the fast path")
	}
}

// FuzzSolveRequestDecode checks the solve request decoder against
// json.Unmarshal: the same accept or reject decision and, on accept, the same
// handle, deadline, options and b bits.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"handle":"h1","b":[1,-0.5,2.5e-3,1E2,0.1,-0],"deadline_ms":250}`,
		`{"b":[],"handle":""}`,
		`{}`,
		` {"handle":"h","b":[1]}` + "\n",
		`{"b":[1e-400,-1e-400,4.9e-324]}`,
		`{"b":[1e400]}`,
		`{"b":[-1e400]}`,
		`{"B":[1,2],"handle":"h"}`,
		`{"Handle":"h","b":[1]}`,
		`{"b":[1,2,3],"b":[4],"handle":"a","handle":"b","deadline_ms":1,"deadline_ms":2}`,
		`{"b":[1,2],"b":[]}`,
		`{"b":[1],"b":null}`,
		`{"handle":"h","b":[1],"options":{"nrhs":1,"runtime":"seq","refine":{"tol":1e-12}}}`,
		`{"handle":"h1","b":[1]}`,
		`{"handle":"é","b":[1]}`,
		`{"handle":null,"b":[null,1]}`,
		`{"handle":"h","b":[1]} junk`,
		`{"handle":"h","b":[1],}`,
		`{"handle":"h","b":[01]}`,
		`{"handle":"h","b":[1.]}`,
		`{"handle":"h","b":[.5]}`,
		`{"handle":"h","b":[+1]}`,
		`{"handle":"h","b":[1e]}`,
		`{"handle":"h","b":[NaN]}`,
		`{"handle":"h","b":[1, 2]}`,
		`{"deadline_ms":1.5}`,
		`{"deadline_ms":1e3}`,
		`{"deadline_ms":-0}`,
		`{"deadline_ms":99999999999999999999}`,
		`{"b":"1"}`,
		`[1]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want solveRequest
		gotErr := unmarshalBody(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: decoder error %q, encoding/json error %q", data, gotErr, wantErr)
			}
			return
		}
		if got.Handle != want.Handle || got.DeadlineMS != want.DeadlineMS || !reflect.DeepEqual(got.Options, want.Options) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", data, got, want)
		}
		if len(got.B) != len(want.B) || (got.B == nil) != (want.B == nil) {
			t.Fatalf("%q: b %v, encoding/json %v", data, got.B, want.B)
		}
		for i := range got.B {
			if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
				t.Fatalf("%q: b[%d] bits %x, encoding/json %x", data, i, math.Float64bits(got.B[i]), math.Float64bits(want.B[i]))
			}
		}
	})
}

// A body longer than one read, with and without a Content-Length hint,
// arrives whole.
func TestReadBody(t *testing.T) {
	src := strings.Repeat("0123456789", 2000)
	for _, hint := range []int64{-1, 0, 10, int64(len(src))} {
		got, err := readBody(strings.NewReader(src), nil, hint)
		if err != nil || string(got) != src {
			t.Fatalf("hint %d: read %d bytes (err %v), want %d", hint, len(got), err, len(src))
		}
	}
}
