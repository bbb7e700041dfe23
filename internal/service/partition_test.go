package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// partitionEngines are the solve engines ("auto" is a solve without
// options). Each applies contributions in canonical order, so the recorded
// partition and the values alone fix its answer, whatever schedule the
// restoring node builds.
var partitionEngines = []string{"auto", "seq", "shared", "dynamic", "mpsim"}

// solveAll solves b against handle on every partitionEngines engine.
func solveAll(t *testing.T, url, handle string, b []float64) map[string][]float64 {
	t.Helper()
	out := make(map[string][]float64)
	for _, rt := range partitionEngines {
		req := solveRequest{Handle: handle, B: b}
		if rt != "auto" {
			req.Options = &solveRequestOptions{Runtime: rt}
		}
		var sr solveResponse
		if st := postJSON(t, url+"/v1/solve", req, &sr); st != http.StatusOK {
			t.Fatalf("%s solve status %d", rt, st)
		}
		out[rt] = sr.X
	}
	return out
}

// sameAnswers fails unless got holds want's answers bit for bit.
func sameAnswers(t *testing.T, where string, got, want map[string][]float64) {
	t.Helper()
	for rt, w := range want {
		g := got[rt]
		if len(g) != len(w) {
			t.Fatalf("%s %s: %d unknowns, want %d", where, rt, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s %s: x[%d] = %x, original %x", where, rt, i, g[i], w[i])
			}
		}
	}
}

// blockSizeFixture factorizes Poisson 12³ on a server at BlockSize 32 —
// whose column-block partition differs from the default BlockSize's — and
// returns the server's URL, the matrix, the handle and the answers.
func blockSizeFixture(t *testing.T, cfg Config) (*Server, *httptest.Server, *pastix.Matrix, string, []float64, map[string][]float64) {
	t.Helper()
	cfg.Solver.BlockSize = 32
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s)
	ts := httptest.NewServer(s.Handler())
	a := gen.Laplacian3D(12, 12, 12)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	e, err := s.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pastix.Analyze(a, pastix.Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(e.an.Partition(), fresh.Partition()) {
		t.Fatal("BlockSize 32 left the default partition: the fixture tests nothing")
	}
	_, b := gen.RHSForSolution(a)
	return s, ts, a, fr.Handle, b, solveAll(t, ts.URL, fr.Handle, b)
}

// TestDurableRestoreOtherBlockSize writes a journal at BlockSize 32 and
// restores it on a server with the default BlockSize: the factor comes
// back on its recorded partition and every engine returns the original
// answers bit for bit, before and after a snapshot rewrites the record.
func TestDurableRestoreOtherBlockSize(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s1, ts1, a, handle, b, want := blockSizeFixture(t, cfg)
	ts1.Close()
	s1.Close()
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(wal[4:]); v != 3 {
		t.Fatalf("journal frame version %d, want 3", v)
	}

	cfg.SnapshotEvery = 1
	for _, life := range []string{"replayed", "snapshotted"} {
		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitReady(t, s2)
		ts2 := httptest.NewServer(s2.Handler())
		sameAnswers(t, life, solveAll(t, ts2.URL, handle, b), want)
		if life == "replayed" {
			// A fresh factorize of the same pattern takes today's partition,
			// under the fingerprint key the restored analysis does not use.
			var fr factorizeResponse
			if st := postJSON(t, ts2.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
				t.Fatalf("factorize status %d", st)
			}
			restored, _ := s2.store.Get(handle)
			fresh, _ := s2.store.Get(fr.Handle)
			if restored.an == fresh.an || slices.Equal(restored.an.Partition(), fresh.an.Partition()) {
				t.Fatal("restored and fresh factors share an analysis")
			}
		}
		ts2.Close()
		s2.Close()
	}
}

// TestReplicateOtherBlockSize imports a factor exported by a node at
// BlockSize 32 into a node with the default BlockSize: the import rebuilds
// the analysis on the transferred partition and every engine returns the
// source's answers bit for bit.
func TestReplicateOtherBlockSize(t *testing.T) {
	src, tsSrc, _, handle, b, want := blockSizeFixture(t, Config{Solver: pastix.Options{Processors: 2}})
	defer src.Close()
	defer tsSrc.Close()
	buf, _ := json.Marshal(replicateRequest{Handle: handle})
	resp, err := http.Post(tsSrc.URL+"/v1/replicate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	transfer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d err %v", resp.StatusCode, err)
	}

	dst, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	waitReady(t, dst)
	tsDst := httptest.NewServer(dst.Handler())
	defer tsDst.Close()
	resp, err = http.Post(tsDst.URL+"/v1/replicate", "application/octet-stream", bytes.NewReader(transfer))
	if err != nil {
		t.Fatal(err)
	}
	var imp factorizeResponse
	err = json.NewDecoder(resp.Body).Decode(&imp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d err %v", resp.StatusCode, err)
	}
	sameAnswers(t, "replica", solveAll(t, tsDst.URL, imp.Handle, b), want)
}
