package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// TestServerBLRCompressedHonest pins what a dense and a BLR handle report
// about their storage — Compressed(), CompressionStats(), MemoryBytes(),
// the /v1/factorize, /v1/stat and /v1/replicate import replies — to fixed
// values (each form counts the values it holds), on the factorizing node,
// on a replica, and after a journal round trip. The message-passing solve takes the dense handle and
// refuses the compressed one with ErrBadOptions.
func TestServerBLRCompressedHonest(t *testing.T) {
	mm := mmString(t, gen.Laplacian3D(7, 7, 7))
	for _, tc := range []struct {
		name        string
		blr         *blrRequestOptions
		memoryBytes int64
		comp        *pastix.CompressionStats
	}{
		{"dense", nil, 108464, nil},
		{"blr", &blrRequestOptions{Tol: 1e-6, MinBlockSize: 2}, 107968, &pastix.CompressionStats{
			DenseBytes: 108464, CompressedBytes: 107968, Ratio: 1.0045939537640782,
			BlocksCompressed: 11, BlocksTotal: 286,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(where string, e *factorEntry, reply *pastix.CompressionStats) {
				t.Helper()
				f := e.f
				if f.Compressed() != (tc.comp != nil) || f.MemoryBytes() != tc.memoryBytes ||
					!reflect.DeepEqual(f.CompressionStats(), tc.comp) || !reflect.DeepEqual(reply, tc.comp) {
					t.Fatalf("%s: compressed %v, %d bytes, stats %+v, reply %+v; want %v, %d bytes, stats %+v",
						where, f.Compressed(), f.MemoryBytes(), f.CompressionStats(), reply,
						tc.comp != nil, tc.memoryBytes, tc.comp)
				}
				_, b := gen.RHSForSolution(gen.Laplacian3D(7, 7, 7))
				_, err := e.an.SolveOpts(context.Background(), f, b, pastix.SolveOptions{Runtime: pastix.RuntimeMPSim})
				if tc.comp == nil && err != nil || tc.comp != nil && !errors.Is(err, pastix.ErrBadOptions) {
					t.Fatalf("%s: mpsim solve err = %v", where, err)
				}
			}

			dir := t.TempDir()
			src, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			waitReady(t, src)
			tsSrc := httptest.NewServer(src.Handler())
			var fr factorizeResponse
			if st := postJSON(t, tsSrc.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm, BLR: tc.blr}, &fr); st != http.StatusOK {
				t.Fatalf("factorize status %d", st)
			}
			e, err := src.store.Get(fr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			check("factorized", e, fr.Compression)
			var stat statResponse
			if st := postJSON(t, tsSrc.URL+"/v1/stat", statRequest{Handle: fr.Handle}, &stat); st != http.StatusOK || stat.Compressed != (tc.comp != nil) {
				t.Fatalf("stat status %d, compressed %v", st, stat.Compressed)
			}

			// Replica: export from the source, import on a second node.
			buf, _ := json.Marshal(replicateRequest{Handle: fr.Handle})
			resp, err := http.Post(tsSrc.URL+"/v1/replicate", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			transfer, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("export status %d err %v", resp.StatusCode, err)
			}
			dst, err := New(Config{Solver: pastix.Options{Processors: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
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
			ei, err := dst.store.Get(imp.Handle)
			if err != nil {
				t.Fatal(err)
			}
			check("replica", ei, imp.Compression)
			tsSrc.Close()
			src.Close()

			// Journal round trip: the restarted source replays the handle.
			re, err := New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			waitReady(t, re)
			er, err := re.store.Get(fr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			check("replayed", er, er.f.CompressionStats())
		})
	}
}
