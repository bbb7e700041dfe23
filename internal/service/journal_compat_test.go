package service

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/solver"
)

// journalFixtureCase is one handle of testdata/v1: its recorded factor
// accounting, one right-hand side, the answer each solve engine gives
// ("auto" is a solve without options), and in XV1 the answer each gave when
// the journal was written. The two differ only where the panel-form solve
// associates the contributions per source cell and per panel, so they agree
// to rounding. The dense handle's mpsim answer is the recorded one bit for
// bit: mpsim now solves on the level-set engine, and on this small problem
// the message-passing sweep that recorded it gave the same bits.
type journalFixtureCase struct {
	Name        string               `json:"name"`
	Handle      string               `json:"handle"`
	Compressed  bool                 `json:"compressed"`
	MemoryBytes int64                `json:"memory_bytes"`
	B           []float64            `json:"b"`
	X           map[string][]float64 `json:"x"`
	XV1         map[string][]float64 `json:"x_v1"`
}

// checkRerecorded fails unless every answer in X is within 1e-12 relative
// (max norm) of the one recorded with the journal, and the mpsim answer is
// that one bit for bit.
func checkRerecorded(t *testing.T, c journalFixtureCase) {
	t.Helper()
	if len(c.X) != len(c.XV1) {
		t.Fatalf("%s: %d engines answered, %d recorded with the journal", c.Name, len(c.X), len(c.XV1))
	}
	for rt, x := range c.X {
		v1 := c.XV1[rt]
		if len(x) != len(v1) {
			t.Fatalf("%s %s: %d entries, %d recorded with the journal", c.Name, rt, len(x), len(v1))
		}
		var diff, norm float64
		for i := range x {
			if rt == "mpsim" && x[i] != v1[i] {
				t.Fatalf("%s mpsim: x[%d] = %x, recorded with the journal %x", c.Name, i, x[i], v1[i])
			}
			diff = math.Max(diff, math.Abs(x[i]-v1[i]))
			norm = math.Max(norm, math.Abs(v1[i]))
		}
		if diff > 1e-12*norm {
			t.Fatalf("%s %s: answer moved %g from the one recorded with the journal (max norm %g)", c.Name, rt, diff, norm)
		}
	}
}

// TestDurableJournalV1Fixture replays testdata/v1/journal, a journal written
// at store codec version 1 by a server at Processors 2 whose dense factor
// payloads were the strided cells: one dense factor (Poisson 10×10) and one
// BLR factor (Poisson 14×14, tol 1e-6, min block 2). Every recovered handle
// must come back in the strided layout, keep its recorded accounting, and
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
	for _, c := range cases {
		checkRerecorded(t, c)
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
			if p, err := e.f.ExportPayload(); err != nil || !c.Compressed && p.Layout != solver.LayoutStrided {
				t.Fatalf("%s: %s: dense factor not strided (err %v)", life, c.Name, err)
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
