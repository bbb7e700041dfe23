// Package store is the durability layer of the solver service: a versioned,
// CRC-checked binary codec for analyses and factors (including perturbation
// reports and BLR-compressed cells) under a write-ahead log + snapshot store
// with atomic-rename commits and fsync discipline. Recovery is a pure
// function of the bytes on disk — the same discipline that makes the solver's
// chaos runs bit-identical to fault-free runs — and every prefix of a crashed
// log replays to a consistent store (wal.go, crash injection in the tests).
//
// Analyses are persisted as their generator, not their product: the defining
// matrix is stored and the deterministic analysis pipeline re-runs on replay,
// which keeps the format small and forever in sync with the code. Factors are
// persisted as their exact numerical payload (solver.FactorPayload), so a
// restored factor solves bitwise-identically to the original without
// refactorizing.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/sparse"
)

// ErrCorruptLog reports bytes that can only come from corruption, not from a
// torn write: a full-length record whose CRC does not match, an unknown
// magic/version/kind, a duplicate or regressing sequence number, or a
// CRC-valid payload whose internal structure is inconsistent. A torn or
// truncated final record is NOT corruption — it is the expected shape of a
// crash mid-write and replay stops cleanly before it.
var ErrCorruptLog = errors.New("store: corrupt log")

// errTornTail marks an incomplete final record (fewer bytes on disk than the
// frame declares). Internal: Open folds it into Recovered.TornTail.
var errTornTail = errors.New("store: torn tail")

const (
	frameMagic = 0x50585357 // "PXSW"
	// codecVersion is the version frames are written at. Version 3 records
	// a factor payload's column-block partition; version 2 states the cell
	// layout of a dense payload. Older frames still decode: versions 1 and 2
	// carry no partition, and version 1 dense cells are all strided.
	codecVersion = 3
	// frameHeader is magic u32 + version u16 + kind u16 + seq u64 + len u32.
	frameHeader = 20
	// maxPayload guards length fields before allocation; a WAL record holds
	// at most one factor, and a 1 GiB factor payload is beyond anything this
	// service admits (MaxBodyBytes caps requests far lower).
	maxPayload = 1 << 30
)

// Kind tags a record's payload type.
type Kind uint16

const (
	// KindFactor is a committed factorization: handle, matrix, payload,
	// idempotency key and the acknowledged response bytes.
	KindFactor Kind = 1
	// KindRelease tombstones a handle.
	KindRelease Kind = 2
	// KindAnalysis is an analyze-time cache warm: fingerprint + matrix.
	KindAnalysis Kind = 3
	// KindSnapshot heads a snapshot file, carrying the sequence number the
	// snapshot covers; WAL records at or below it are stale.
	KindSnapshot Kind = 4
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// --- records ---

// FactorRecord is the durable form of one committed factorization. The
// matrix is stored with its values — they bind the refinement system on
// restore and are the re-factorize fallback when a factor payload cannot be
// transferred.
type FactorRecord struct {
	Handle      string
	Fingerprint string
	IdemKey     string
	Matrix      *sparse.SymMatrix
	Payload     *solver.FactorPayload
	// Response is the acknowledged factorize response body, replayed verbatim
	// for idempotent retries that arrive after a restart.
	Response []byte
}

// AnalysisRecord persists an analyze-time cache entry as its generator: the
// deterministic pipeline re-analyzes the matrix on replay.
type AnalysisRecord struct {
	Fingerprint string
	Matrix      *sparse.SymMatrix
}

// ReleaseRecord tombstones a handle.
type ReleaseRecord struct {
	Handle string
}

// --- primitive encoder/decoder ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}
func (e *enc) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(uint64(x))
	}
}
func (e *enc) u32s(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}
func (e *enc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

// dec is a bounds-checked little-endian reader: the first failure latches and
// every later read returns zeros, so decode paths stay linear and check err
// once at the end. Count fields are validated against the remaining bytes
// BEFORE allocation — a corrupted length cannot force a huge allocation.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptLog}, args...)...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a length field and validates it against the bytes remaining at
// elemSize bytes per element.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.b)-d.off)/elemSize {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.count(1)
	s := d.take(n)
	return string(s)
}
func (d *dec) bytes() []byte {
	n := d.count(1)
	s := d.take(n)
	if s == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, s)
	return out
}
func (d *dec) floats() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
func (d *dec) ints() []int {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := d.u64()
		if v > math.MaxInt32 {
			d.fail("int value %d out of range", v)
			return nil
		}
		out[i] = int(v)
	}
	return out
}

// u32s reads a list written by enc.u32s; an empty list decodes as nil.
func (d *dec) u32s() []int {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := d.u32()
		if v > math.MaxInt32 {
			d.fail("int value %d out of range", v)
			return nil
		}
		out[i] = int(v)
	}
	return out
}
func (d *dec) i32s() []int32 {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

// --- matrix codec ---

func encodeMatrix(e *enc, m *sparse.SymMatrix) {
	e.u64(uint64(m.N))
	e.ints(m.ColPtr)
	e.ints(m.RowIdx)
	e.floats(m.Val)
}

func decodeMatrix(d *dec) *sparse.SymMatrix {
	n := d.u64()
	m := &sparse.SymMatrix{
		N:      int(n),
		ColPtr: d.ints(),
		RowIdx: d.ints(),
		Val:    d.floats(),
	}
	if d.err != nil {
		return nil
	}
	if n > math.MaxInt32 || len(m.ColPtr) != m.N+1 || len(m.Val) != len(m.RowIdx) {
		d.fail("matrix shape: n=%d colptr=%d rowidx=%d val=%d", n, len(m.ColPtr), len(m.RowIdx), len(m.Val))
		return nil
	}
	if err := m.Validate(); err != nil {
		d.fail("matrix: %v", err)
		return nil
	}
	return m
}

// --- factor payload codec ---

const (
	formDense      = 0
	formCompressed = 1
)

func encodePayload(e *enc, p *solver.FactorPayload) {
	// The partition (empty when the payload predates it) heads the payload.
	e.u32s(p.Partition)
	if p.Compressed() {
		e.u8(formCompressed)
		e.u32(uint32(len(p.LRCells)))
		for i := range p.LRCells {
			c := &p.LRCells[i]
			e.floats(c.Diag)
			e.floats(c.Dense)
			e.i32s(c.Off)
			e.u32(uint32(len(c.LR)))
			for _, lb := range c.LR {
				if lb == nil {
					e.u8(0)
					continue
				}
				e.u8(1)
				e.u64(uint64(lb.Rows))
				e.u64(uint64(lb.Cols))
				e.u64(uint64(lb.Rank))
				e.floats(lb.U)
				e.floats(lb.V)
			}
		}
		if p.Comp != nil {
			e.u8(1)
			e.u64(uint64(p.Comp.DenseBytes))
			e.u64(uint64(p.Comp.CompressedBytes))
			e.f64(p.Comp.Ratio)
			e.u64(uint64(p.Comp.BlocksCompressed))
			e.u64(uint64(p.Comp.BlocksTotal))
		} else {
			e.u8(0)
		}
	} else {
		e.u8(formDense)
		e.u8(uint8(p.Layout))
		e.u32(uint32(len(p.Cells)))
		for _, cell := range p.Cells {
			e.floats(cell)
		}
	}
	// Pivot report (either form).
	if p.Pivots == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64(p.Pivots.Epsilon)
	e.f64(p.Pivots.NormMax)
	e.f64(p.Pivots.Threshold)
	e.f64(p.Pivots.PivotGrowth)
	e.u32(uint32(len(p.Pivots.Perturbed)))
	for _, pt := range p.Pivots.Perturbed {
		e.u64(uint64(pt.Column))
		e.f64(pt.Original)
		e.f64(pt.Used)
	}
}

// decodePayload decodes a factor payload written at codec version v.
func decodePayload(d *dec, v uint16) *solver.FactorPayload {
	p := &solver.FactorPayload{}
	if v >= 3 {
		p.Partition = d.u32s()
	}
	switch form := d.u8(); form {
	case formCompressed:
		ncells := d.count(1)
		if d.err != nil {
			return nil
		}
		p.LRCells = make([]solver.LRCellPayload, ncells)
		for i := 0; i < ncells && d.err == nil; i++ {
			c := &p.LRCells[i]
			c.Diag = d.floats()
			c.Dense = d.floats()
			c.Off = d.i32s()
			nb := d.count(1)
			if d.err != nil {
				break
			}
			c.LR = make([]*lowrank.LRBlock, nb)
			for bi := 0; bi < nb && d.err == nil; bi++ {
				if d.u8() == 0 {
					continue
				}
				lb := &lowrank.LRBlock{
					Rows: int(d.u64()), Cols: int(d.u64()), Rank: int(d.u64()),
				}
				lb.U = d.floats()
				lb.V = d.floats()
				c.LR[bi] = lb
			}
		}
		if d.u8() == 1 {
			p.Comp = &solver.CompressionStats{
				DenseBytes:       int64(d.u64()),
				CompressedBytes:  int64(d.u64()),
				Ratio:            d.f64(),
				BlocksCompressed: int(d.u64()),
				BlocksTotal:      int(d.u64()),
			}
		}
	case formDense:
		p.Layout = solver.LayoutStrided
		if v > 1 {
			// Unknown layouts pass through: ImportFactors rejects them
			// with solver.ErrPayloadLayout.
			p.Layout = solver.CellLayout(d.u8())
		}
		ncells := d.count(1)
		if d.err != nil {
			return nil
		}
		p.Cells = make([][]float64, ncells)
		for i := 0; i < ncells && d.err == nil; i++ {
			p.Cells[i] = d.floats()
		}
	default:
		d.fail("unknown factor payload form %d", form)
		return nil
	}
	if d.u8() == 1 {
		rep := &solver.PerturbationReport{
			Epsilon:     d.f64(),
			NormMax:     d.f64(),
			Threshold:   d.f64(),
			PivotGrowth: d.f64(),
		}
		np := d.count(24)
		if d.err != nil {
			return nil
		}
		if np > 0 {
			rep.Perturbed = make([]solver.Perturbation, np)
			for i := range rep.Perturbed {
				rep.Perturbed[i] = solver.Perturbation{
					Column: int(d.u64()), Original: d.f64(), Used: d.f64(),
				}
			}
		}
		p.Pivots = rep
	}
	if d.err != nil {
		return nil
	}
	return p
}

// --- record payload codecs ---

func encodeFactorRecord(r *FactorRecord) []byte {
	e := &enc{}
	e.str(r.Handle)
	e.str(r.Fingerprint)
	e.str(r.IdemKey)
	encodeMatrix(e, r.Matrix)
	encodePayload(e, r.Payload)
	e.bytes(r.Response)
	return e.b
}

// decodeFactorRecord decodes a factor record written at codec version v.
func decodeFactorRecord(b []byte, v uint16) (*FactorRecord, error) {
	d := &dec{b: b}
	r := &FactorRecord{
		Handle:      d.str(),
		Fingerprint: d.str(),
		IdemKey:     d.str(),
	}
	r.Matrix = decodeMatrix(d)
	r.Payload = decodePayload(d, v)
	r.Response = d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in factor record", ErrCorruptLog, len(b)-d.off)
	}
	return r, nil
}

func encodeAnalysisRecord(r *AnalysisRecord) []byte {
	e := &enc{}
	e.str(r.Fingerprint)
	encodeMatrix(e, r.Matrix)
	return e.b
}

func decodeAnalysisRecord(b []byte) (*AnalysisRecord, error) {
	d := &dec{b: b}
	r := &AnalysisRecord{Fingerprint: d.str()}
	r.Matrix = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in analysis record", ErrCorruptLog, len(b)-d.off)
	}
	return r, nil
}

func encodeReleaseRecord(r *ReleaseRecord) []byte {
	e := &enc{}
	e.str(r.Handle)
	return e.b
}

func decodeReleaseRecord(b []byte) (*ReleaseRecord, error) {
	d := &dec{b: b}
	r := &ReleaseRecord{Handle: d.str()}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in release record", ErrCorruptLog, len(b)-d.off)
	}
	return r, nil
}

// --- framing ---

// appendFrame appends one CRC-sealed record frame:
//
//	magic u32 | version u16 | kind u16 | seq u64 | len u32 | payload | crc u32
//
// The CRC (Castagnoli) covers everything before it, header included, so a
// bit flip anywhere in the frame is detected.
func appendFrame(dst []byte, kind Kind, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint16(dst, codecVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(kind))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTab)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// readFrame parses the frame at b[off:]. It distinguishes a torn tail (not
// enough bytes for the declared frame: errTornTail, replay stops cleanly)
// from corruption (bad magic/version/CRC with the full frame present:
// ErrCorruptLog).
func readFrame(b []byte, off int) (kind Kind, v uint16, seq uint64, payload []byte, next int, err error) {
	rest := len(b) - off
	if rest < frameHeader {
		return 0, 0, 0, nil, off, errTornTail
	}
	h := b[off:]
	if binary.LittleEndian.Uint32(h) != frameMagic {
		return 0, 0, 0, nil, off, fmt.Errorf("%w: bad frame magic at offset %d", ErrCorruptLog, off)
	}
	if v = binary.LittleEndian.Uint16(h[4:]); v < 1 || v > codecVersion {
		return 0, 0, 0, nil, off, fmt.Errorf("%w: unsupported codec version %d", ErrCorruptLog, v)
	}
	kind = Kind(binary.LittleEndian.Uint16(h[6:]))
	seq = binary.LittleEndian.Uint64(h[8:])
	plen := int(binary.LittleEndian.Uint32(h[16:]))
	if plen < 0 || plen > maxPayload {
		return 0, 0, 0, nil, off, fmt.Errorf("%w: frame payload length %d", ErrCorruptLog, plen)
	}
	total := frameHeader + plen + 4
	if rest < total {
		// The length field itself may be the flipped bits, but with the tail
		// missing we cannot tell a torn write from corruption; the safe,
		// documented choice is the torn-tail verdict (clean prefix recovery).
		return 0, 0, 0, nil, off, errTornTail
	}
	want := binary.LittleEndian.Uint32(h[frameHeader+plen:])
	got := crc32.Checksum(h[:frameHeader+plen], crcTab)
	if want != got {
		return 0, 0, 0, nil, off, fmt.Errorf("%w: CRC mismatch at offset %d (record seq %d)", ErrCorruptLog, off, seq)
	}
	return kind, v, seq, h[frameHeader : frameHeader+plen], off + total, nil
}

// MarshalFactorRecord seals a factor record into a standalone CRC-checked
// frame — the wire format of the backend-to-backend /v1/replicate transfer.
func MarshalFactorRecord(r *FactorRecord) []byte {
	return appendFrame(nil, KindFactor, 0, encodeFactorRecord(r))
}

// UnmarshalFactorRecord parses a frame produced by MarshalFactorRecord.
func UnmarshalFactorRecord(b []byte) (*FactorRecord, error) {
	kind, v, _, payload, next, err := readFrame(b, 0)
	if err != nil {
		if errors.Is(err, errTornTail) {
			return nil, fmt.Errorf("%w: truncated factor record", ErrCorruptLog)
		}
		return nil, err
	}
	if kind != KindFactor {
		return nil, fmt.Errorf("%w: record kind %d is not a factor", ErrCorruptLog, kind)
	}
	if next != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after factor record", ErrCorruptLog, len(b)-next)
	}
	return decodeFactorRecord(payload, v)
}
