package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/sparse"
)

// testMatrix is a small valid symmetric matrix with distinctive values.
func testMatrix(n int) *sparse.SymMatrix {
	m := gen.Laplacian2D(n, n)
	for i := range m.Val {
		m.Val[i] *= 1 + 1e-3*float64(i%7)
	}
	return m
}

// densePayload builds a synthetic dense factor payload (the codec does not
// validate against a symbol; solver.ImportFactors does that downstream).
func densePayload() *solver.FactorPayload {
	return &solver.FactorPayload{
		Cells:  [][]float64{{1, 2.5, -3}, {}, {4.25}},
		Layout: solver.LayoutPacked,
		Pivots: &solver.PerturbationReport{
			Epsilon: 1e-8, NormMax: 4, Threshold: 4e-8, PivotGrowth: 1.25,
			Perturbed: []solver.Perturbation{{Column: 3, Original: 1e-12, Used: 4e-8}},
		},
	}
}

func lrPayload() *solver.FactorPayload {
	return &solver.FactorPayload{
		LRCells: []solver.LRCellPayload{
			{
				Diag:  []float64{2, 0.5, 0.5, 3},
				Dense: []float64{1, 2, 3, 4},
				Off:   []int32{0, -1},
				LR: []*lowrank.LRBlock{nil, {
					Rows: 3, Cols: 2, Rank: 1,
					U: []float64{1, 2, 3}, V: []float64{0.5, -0.5},
				}},
			},
		},
		Comp: &solver.CompressionStats{DenseBytes: 96, CompressedBytes: 72, Ratio: 96.0 / 72, BlocksCompressed: 1, BlocksTotal: 2},
	}
}

func factorRecord(handle, idem string, p *solver.FactorPayload) *FactorRecord {
	return &FactorRecord{
		Handle:      handle,
		Fingerprint: "fp-" + handle,
		IdemKey:     idem,
		Matrix:      testMatrix(4),
		Payload:     p,
		Response:    []byte(`{"handle":"` + handle + `","durable":true}`),
	}
}

func TestFactorRecordRoundTrip(t *testing.T) {
	for name, p := range map[string]*solver.FactorPayload{"dense": densePayload(), "lr": lrPayload()} {
		in := factorRecord("f-000001-abcd", "key-1", p)
		b := MarshalFactorRecord(in)
		out, err := UnmarshalFactorRecord(b)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: round trip mismatch:\n in=%+v\nout=%+v", name, in, out)
		}
	}
}

// v1DenseFrame seals r as codec version 1 wrote it: a dense payload carries
// no layout byte (its cells are strided) and the frame header says 1.
func v1DenseFrame(r *FactorRecord, seq uint64) []byte {
	e := &enc{}
	e.str(r.Handle)
	e.str(r.Fingerprint)
	e.str(r.IdemKey)
	encodeMatrix(e, r.Matrix)
	e.u8(formDense)
	e.u32(uint32(len(r.Payload.Cells)))
	for _, c := range r.Payload.Cells {
		e.floats(c)
	}
	e.u8(0) // no pivot report
	e.bytes(r.Response)
	b := appendFrame(nil, KindFactor, seq, e.b)
	binary.LittleEndian.PutUint16(b[4:], 1)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTab))
	return b
}

// TestDecodeVersion1DensePayload: a version-1 dense payload decodes as
// strided, both from the WAL and as a transfer, and keeps decoding so after
// a snapshot has rewritten it at the current version. Frame versions the
// codec does not know are corruption.
func TestDecodeVersion1DensePayload(t *testing.T) {
	want := factorRecord("f-000001-old1", "", densePayload())
	want.Payload.Pivots = nil
	want.Payload.Layout = solver.LayoutStrided
	frame := v1DenseFrame(want, 1)
	if got, err := UnmarshalFactorRecord(frame); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 transfer: err %v, record %+v", err, got)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(dir, Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Factors) != 1 || !reflect.DeepEqual(rec.Factors[0], want) {
		t.Fatalf("version-1 WAL recovered %+v", rec.Factors)
	}
	// One append compacts: the WAL is emptied and the snapshot holds the
	// old record, re-encoded at the current version.
	if err := s.AppendRelease("f-000009-none"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Snapshots != 1 || st.WALBytes != 0 {
		t.Fatalf("no compaction: %+v", st)
	}
	s.Close()
	s2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if len(rec2.Factors) != 1 || !reflect.DeepEqual(rec2.Factors[0], want) {
		t.Fatalf("after the snapshot rewrite recovered %+v", rec2.Factors)
	}
	for _, v := range []uint16{0, codecVersion + 1} {
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint16(bad[4:], v)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], crcTab))
		if _, err := UnmarshalFactorRecord(bad); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("frame version %d: err %v, want ErrCorruptLog", v, err)
		}
	}
}

func TestOpenEmptyAndAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Factors) != 0 || len(rec.Analyses) != 0 || rec.TornTail {
		t.Fatalf("fresh store not empty: %+v", rec)
	}
	if _, err := s.AppendAnalysis(&AnalysisRecord{Fingerprint: "fpA", Matrix: testMatrix(3)}); err != nil {
		t.Fatal(err)
	}
	// Second append of the same fingerprint is a no-op.
	if appended, err := s.AppendAnalysis(&AnalysisRecord{Fingerprint: "fpA", Matrix: testMatrix(3)}); err != nil || appended {
		t.Fatalf("duplicate analysis appended=%v err=%v", appended, err)
	}
	if err := s.AppendFactor(factorRecord("f-000001-aaaa", "k1", densePayload())); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFactor(factorRecord("f-000002-bbbb", "", lrPayload())); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRelease("f-000001-aaaa"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LiveFactors != 1 || st.LiveAnalyses != 1 || st.WALRecords != 4 {
		t.Fatalf("stats %+v", st)
	}
	s.Close()

	s2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec2.Factors) != 1 || rec2.Factors[0].Handle != "f-000002-bbbb" {
		t.Fatalf("recovered factors %+v", rec2.Factors)
	}
	if len(rec2.Analyses) != 1 || rec2.Analyses[0].Fingerprint != "fpA" {
		t.Fatalf("recovered analyses %+v", rec2.Analyses)
	}
	if rec2.TornTail {
		t.Fatal("unexpected torn tail")
	}
	if !reflect.DeepEqual(rec2.Factors[0].Payload, lrPayload()) {
		t.Fatal("recovered payload differs")
	}
	// The store keeps appending after recovery without sequence conflicts.
	if err := s2.AppendFactor(factorRecord("f-000003-cccc", "", densePayload())); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		h := fmt.Sprintf("f-%06d-snap", i+1)
		if err := s.AppendFactor(factorRecord(h, "", densePayload())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendRelease("f-000001-snap"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot happened")
	}
	if st.WALRecords >= 13 {
		t.Fatalf("WAL not compacted: %+v", st)
	}
	s.Close()
	s2, rec, err := Open(dir, Options{SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Factors) != 11 {
		t.Fatalf("recovered %d factors, want 11", len(rec.Factors))
	}
	for _, fr := range rec.Factors {
		if fr.Handle == "f-000001-snap" {
			t.Fatal("released handle resurrected by snapshot replay")
		}
	}
}

// TestCrashAtEveryWrite proves the acceptance criterion: with a seeded crash
// injected at write k for every k, the store recovers exactly the records
// acknowledged before the crash — every prefix of a crashed WAL is a
// consistent store.
func TestCrashAtEveryWrite(t *testing.T) {
	const appends = 10
	for _, seed := range []int64{1, 7, 42} {
		for k := 1; k <= appends+3; k++ { // +3 reaches into snapshot writes
			dir := t.TempDir()
			s, _, err := Open(dir, Options{SnapshotEvery: 4, CrashAfterWrites: k, CrashSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i := 0; i < appends; i++ {
				h := fmt.Sprintf("f-%06d-crsh", i+1)
				err := s.AppendFactor(factorRecord(h, fmt.Sprintf("k%d", i), densePayload()))
				if err != nil {
					if !errors.Is(err, ErrInjectedCrash) {
						t.Fatalf("seed %d k %d append %d: %v", seed, k, i, err)
					}
					break
				}
				acked++
			}
			s.Close()

			s2, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("seed %d k %d: recovery failed: %v", seed, k, err)
			}
			// Recovery must hold at least every acknowledged append; the
			// record torn by the crash itself was never acked and must be
			// dropped cleanly (never a decode error, never a partial record).
			if len(rec.Factors) < acked || len(rec.Factors) > acked+1 {
				t.Fatalf("seed %d k %d: recovered %d factors, acked %d", seed, k, len(rec.Factors), acked)
			}
			for i, fr := range rec.Factors {
				want := factorRecord(fmt.Sprintf("f-%06d-crsh", i+1), fmt.Sprintf("k%d", i), densePayload())
				if !reflect.DeepEqual(fr, want) {
					t.Fatalf("seed %d k %d: recovered record %d differs", seed, k, i)
				}
			}
			// The recovered store must accept new appends.
			if err := s2.AppendFactor(factorRecord("f-900000-postx", "", densePayload())); err != nil {
				t.Fatalf("seed %d k %d: post-recovery append: %v", seed, k, err)
			}
			s2.Close()
		}
	}
}

// --- corruption table tests ---

// buildWAL writes a store with nrec factor records and returns the WAL path.
func buildWAL(t *testing.T, nrec int) (dir, wal string) {
	t.Helper()
	dir = t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nrec; i++ {
		if err := s.AppendFactor(factorRecord(fmt.Sprintf("f-%06d-corr", i+1), "", densePayload())); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	return dir, filepath.Join(dir, walName)
}

func TestRecoverTruncatedTail(t *testing.T) {
	dir, wal := buildWAL(t, 3)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := len(b) / 3 // all three records are byte-identical in size
	for _, tc := range []struct{ cut, want int }{
		{1, 2}, {7, 2}, {rec1 - 3, 2}, {rec1 + 5, 1}, {len(b) - 1, 0},
	} {
		if err := os.WriteFile(wal, b[:len(b)-tc.cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: truncated tail must recover cleanly, got %v", tc.cut, err)
		}
		if !rec.TornTail {
			t.Fatalf("cut %d: torn tail not reported", tc.cut)
		}
		if len(rec.Factors) != tc.want {
			t.Fatalf("cut %d: recovered %d factors, want %d", tc.cut, len(rec.Factors), tc.want)
		}
		s.Close()
	}
}

func TestRecoverBitFlippedCRC(t *testing.T) {
	dir, wal := buildWAL(t, 3)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the middle record's payload.
	flipped := make([]byte, len(b))
	copy(flipped, b)
	flipped[len(b)/2] ^= 0x10
	if err := os.WriteFile(wal, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("bit flip: want ErrCorruptLog, got %v", err)
	}
}

func TestRecoverDuplicateSequence(t *testing.T) {
	dir, wal := buildWAL(t, 1)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Append a byte-identical copy of the first record: same sequence twice.
	dup := append(append([]byte{}, b...), b...)
	if err := os.WriteFile(wal, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("duplicate sequence: want ErrCorruptLog, got %v", err)
	}
}

func TestRecoverBadMagic(t *testing.T) {
	dir, wal := buildWAL(t, 2)
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b, 0xdeadbeef)
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("bad magic: want ErrCorruptLog, got %v", err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.AppendFactor(factorRecord(fmt.Sprintf("f-%06d-snco", i+1), "", densePayload())); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	snap := filepath.Join(dir, snapName)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// A snapshot committed by atomic rename cannot legitimately be torn or
	// flipped: corruption, not clean recovery.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("corrupt snapshot: want ErrCorruptLog, got %v", err)
	}
}

func TestStaleWALPrefixAfterSnapshot(t *testing.T) {
	// Simulate a crash between snapshot rename and WAL truncation: the WAL
	// still holds records the snapshot already covers. Replay must skip them.
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var walCopy []byte
	for i := 0; i < 3; i++ {
		if err := s.AppendFactor(factorRecord(fmt.Sprintf("f-%06d-stal", i+1), "", densePayload())); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			walCopy, err = os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	// After the 3rd append a snapshot fired and truncated the WAL. Put the
	// old records back in front, as an interrupted truncation would leave.
	cur, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), append(walCopy, cur...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("stale WAL prefix must replay cleanly: %v", err)
	}
	defer s2.Close()
	if len(rec.Factors) != 3 {
		t.Fatalf("recovered %d factors, want 3", len(rec.Factors))
	}
}

func TestUnmarshalRejectsTruncatedTransfer(t *testing.T) {
	b := MarshalFactorRecord(factorRecord("f-000001-wire", "", densePayload()))
	if _, err := UnmarshalFactorRecord(b[:len(b)-5]); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("truncated transfer: want ErrCorruptLog, got %v", err)
	}
	flipped := bytes.Clone(b)
	flipped[len(b)/3] ^= 0x40
	if _, err := UnmarshalFactorRecord(flipped); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("flipped transfer: want ErrCorruptLog, got %v", err)
	}
}

// A failed directory fsync after the snapshot rename must not truncate the
// WAL: the rename may not be durable yet, so the WAL can be the only durable
// copy of its records.
func TestSnapshotDirSyncFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.dirSync = func(string) error { return errors.New("injected directory fsync failure") }
	for i := 0; i < 3; i++ {
		if err := s.AppendFactor(factorRecord(fmt.Sprintf("f-%06d-sync", i+1), "", densePayload())); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Snapshots != 0 || st.WALRecords != 3 {
		t.Fatalf("compaction went ahead despite the failed directory sync: %+v", st)
	}
	s.Close()
	// A crash now may lose the rename that was never made durable: the WAL
	// alone must recover every acknowledged record.
	if err := os.Remove(filepath.Join(dir, snapName)); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Factors) != 3 {
		t.Fatalf("recovered %d factors from the WAL, want 3", len(rec.Factors))
	}
}
