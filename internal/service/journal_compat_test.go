package service

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/solver"
)

// journalFixtureCase is one handle of testdata/v1: its recorded factor
// accounting, one right-hand side, and the answer each solve engine gave
// ("auto" is a solve without options) when the journal was written.
type journalFixtureCase struct {
	Name        string               `json:"name"`
	Handle      string               `json:"handle"`
	Compressed  bool                 `json:"compressed"`
	MemoryBytes int64                `json:"memory_bytes"`
	B           []float64            `json:"b"`
	X           map[string][]float64 `json:"x"`
}

// TestDurableJournalV1Fixture replays testdata/v1/journal, a journal written
// at store codec version 1 by a server at Processors 2 whose dense factor
// payloads were the strided cells: one dense factor (Poisson 10×10) and one
// BLR factor (Poisson 14×14, tol 1e-6, min block 2). Every recovered handle
// must come back in the packed layout, keep its recorded accounting, and
// solve bit for bit as recorded, on every engine; and so again after a
// snapshot has rewritten the old records at the current codec version.
func TestDurableJournalV1Fixture(t *testing.T) {
	wal, err := os.ReadFile("testdata/v1/journal/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(wal[4:]); v != 1 {
		t.Fatalf("fixture frame version %d, want 1", v)
	}
	raw, err := os.ReadFile("testdata/v1/answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []journalFixtureCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 1

	check := func(life string) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		waitReady(t, s)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for _, c := range cases {
			e, err := s.store.Get(c.Handle)
			if err != nil {
				t.Fatalf("%s: %s: %v", life, c.Name, err)
			}
			if e.f.Compressed() != c.Compressed || e.f.MemoryBytes() != c.MemoryBytes {
				t.Fatalf("%s: %s: compressed %v, %d bytes; recorded %v, %d bytes",
					life, c.Name, e.f.Compressed(), e.f.MemoryBytes(), c.Compressed, c.MemoryBytes)
			}
			if p, err := e.f.ExportPayload(); err != nil || !c.Compressed && p.Layout != solver.LayoutPacked {
				t.Fatalf("%s: %s: dense factor not repacked (err %v)", life, c.Name, err)
			}
			for rt, want := range c.X {
				req := solveRequest{Handle: c.Handle, B: c.B}
				if rt != "auto" {
					req.Options = &solveRequestOptions{Runtime: rt}
				}
				var sr solveResponse
				if st := postJSON(t, ts.URL+"/v1/solve", req, &sr); st != http.StatusOK {
					t.Fatalf("%s: %s %s solve status %d", life, c.Name, rt, st)
				}
				for i := range want {
					if sr.X[i] != want[i] {
						t.Fatalf("%s: %s %s: x[%d] = %x, recorded %x", life, c.Name, rt, i, sr.X[i], want[i])
					}
				}
			}
		}
		if life == "replayed" {
			// One new record compacts the store: the snapshot rewrites the
			// version-1 records at the current version.
			mm := mmString(t, gen.Laplacian2D(4, 4))
			if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusOK {
				t.Fatalf("factorize status %d", st)
			}
		}
	}
	check("replayed")
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(snap[4:]); v == 1 {
		t.Fatal("snapshot written at codec version 1")
	}
	check("snapshotted")
}
