package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrInjectedCrash is returned by every operation after the seeded crash
// injector fired: the store behaves like a process that died mid-write. Only
// tests configure the injector.
var ErrInjectedCrash = errors.New("store: injected crash")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

const (
	walName  = "wal.log"
	snapName = "snapshot.bin"
	tmpName  = "snapshot.tmp"
)

// Options configures a Store.
type Options struct {
	// SnapshotEvery compacts the WAL into a snapshot after this many appended
	// records (default 256). Snapshots commit by atomic rename; the WAL is
	// truncated only after the rename is durable.
	SnapshotEvery int
	// NoSync skips fsync after writes. Only for benchmarks measuring the sync
	// cost; a NoSync store does not survive power loss, only process crashes.
	NoSync bool
	// CrashAfterWrites, when positive, makes the k-th file write (1-based,
	// counted across WAL appends and snapshot writes) persist only a seeded
	// prefix of its bytes and fail with ErrInjectedCrash; every later
	// operation fails too. With CrashSeed varying, the crash-at-write-k suite
	// proves every prefix of a crashed log recovers consistently.
	CrashAfterWrites int
	// CrashSeed picks the partial-write fraction of the injected crash.
	CrashSeed int64
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	return o
}

// walEntry is one live record in the store's state machine: the encoded
// payload plus the sequence number that committed it (for deterministic
// replay ordering).
type walEntry struct {
	seq     uint64
	payload []byte
}

// Store is the durable state machine: an append-only CRC-framed WAL plus a
// periodically rewritten snapshot, both under one directory. The live state
// (factor records by handle, analysis records by fingerprint) is maintained
// in encoded form so a snapshot is written purely from log-layer state —
// never by re-serializing live solver objects, which keeps the on-disk bytes
// a pure function of the append history.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	wal  *os.File

	seq        uint64
	walRecords int
	walBytes   int64
	snapshots  int64
	closed     bool
	crashed    bool
	writes     int // injector counter

	// dirSync makes a rename inside dir durable; tests substitute a
	// failing one.
	dirSync func(dir string) error

	factors  map[string]walEntry // handle → encoded FactorRecord
	analyses map[string]walEntry // fingerprint → encoded AnalysisRecord
}

// Recovered is what Open replayed from disk, in commit order.
type Recovered struct {
	Factors  []*FactorRecord
	Analyses []*AnalysisRecord
	// WALBytes is the valid WAL prefix replayed; TornTail reports that bytes
	// beyond it were dropped (the signature of a crash mid-append).
	WALBytes int64
	TornTail bool
}

// Open loads (or creates) the store under dir and replays snapshot + WAL into
// a Recovered. Replay is a pure function of the bytes on disk: a torn final
// record is truncated away, anything else inconsistent fails with
// ErrCorruptLog, and on success the store is positioned to append.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		dirSync:  fsyncDir,
		factors:  make(map[string]walEntry),
		analyses: make(map[string]walEntry),
	}
	rec := &Recovered{}
	snapUpTo, err := s.loadSnapshot()
	if err != nil {
		return nil, nil, err
	}
	if err := s.replayWAL(snapUpTo, rec); err != nil {
		return nil, nil, err
	}
	if s.seq < snapUpTo {
		s.seq = snapUpTo
	}
	// Collect the live state in commit order for the caller.
	rec.Factors = make([]*FactorRecord, 0, len(s.factors))
	for _, e := range s.factors {
		fr, err := decodeFactorRecord(e.payload, codecVersion)
		if err != nil {
			return nil, nil, err
		}
		rec.Factors = append(rec.Factors, fr)
	}
	entSeq := func(fr *FactorRecord) uint64 { return s.factors[fr.Handle].seq }
	sort.Slice(rec.Factors, func(i, j int) bool { return entSeq(rec.Factors[i]) < entSeq(rec.Factors[j]) })
	rec.Analyses = make([]*AnalysisRecord, 0, len(s.analyses))
	for _, e := range s.analyses {
		ar, err := decodeAnalysisRecord(e.payload)
		if err != nil {
			return nil, nil, err
		}
		rec.Analyses = append(rec.Analyses, ar)
	}
	sort.Slice(rec.Analyses, func(i, j int) bool {
		return s.analyses[rec.Analyses[i].Fingerprint].seq < s.analyses[rec.Analyses[j].Fingerprint].seq
	})
	rec.WALBytes = s.walBytes

	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop any torn tail so the next append lands on a record boundary.
	if err := wal.Truncate(s.walBytes); err != nil {
		wal.Close()
		return nil, nil, err
	}
	if _, err := wal.Seek(s.walBytes, 0); err != nil {
		wal.Close()
		return nil, nil, err
	}
	s.wal = wal
	return s, rec, nil
}

// loadSnapshot reads snapshot.bin if present. A snapshot commits by atomic
// rename, so unlike the WAL it must be perfectly formed end to end: any torn
// or mismatched record inside it is real corruption.
func (s *Store) loadSnapshot() (upTo uint64, err error) {
	b, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	off := 0
	kind, _, seq, payload, next, err := readFrame(b, off)
	if err != nil {
		if errors.Is(err, errTornTail) {
			return 0, fmt.Errorf("%w: truncated snapshot header", ErrCorruptLog)
		}
		return 0, err
	}
	if kind != KindSnapshot {
		return 0, fmt.Errorf("%w: snapshot starts with record kind %d", ErrCorruptLog, kind)
	}
	d := &dec{b: payload}
	upTo = d.u64()
	if d.err != nil || d.off != len(payload) {
		return 0, fmt.Errorf("%w: malformed snapshot header", ErrCorruptLog)
	}
	_ = seq
	off = next
	for off < len(b) {
		kind, v, rseq, payload, next, err := readFrame(b, off)
		if err != nil {
			if errors.Is(err, errTornTail) {
				return 0, fmt.Errorf("%w: truncated snapshot record at offset %d", ErrCorruptLog, off)
			}
			return 0, err
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		switch kind {
		case KindFactor:
			fr, cp, err := decodeFactorEntry(cp, v)
			if err != nil {
				return 0, err
			}
			s.factors[fr.Handle] = walEntry{seq: rseq, payload: cp}
		case KindAnalysis:
			ar, err := decodeAnalysisRecord(cp)
			if err != nil {
				return 0, err
			}
			s.analyses[ar.Fingerprint] = walEntry{seq: rseq, payload: cp}
		default:
			return 0, fmt.Errorf("%w: record kind %d inside snapshot", ErrCorruptLog, kind)
		}
		off = next
	}
	return upTo, nil
}

// decodeFactorEntry decodes a factor record read at codec version v and
// returns it with its payload bytes at the current version: an older record
// is re-encoded, so the live state (and every snapshot written from it)
// holds one encoding.
func decodeFactorEntry(b []byte, v uint16) (*FactorRecord, []byte, error) {
	fr, err := decodeFactorRecord(b, v)
	if err != nil || v == codecVersion {
		return fr, b, err
	}
	return fr, encodeFactorRecord(fr), nil
}

// replayWAL applies the WAL on top of the snapshot state. Records at or
// below the snapshot's sequence are skipped (the stale prefix left when a
// crash hit between snapshot rename and WAL truncation); beyond it the
// sequence must be strictly increasing — a duplicate or regression is
// corruption, not a torn write.
func (s *Store) replayWAL(snapUpTo uint64, rec *Recovered) error {
	b, err := os.ReadFile(filepath.Join(s.dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	off := 0
	last := snapUpTo
	for off < len(b) {
		kind, v, seq, payload, next, err := readFrame(b, off)
		if err != nil {
			if errors.Is(err, errTornTail) {
				rec.TornTail = true
				break
			}
			return err
		}
		if seq <= snapUpTo {
			// Stale prefix already folded into the snapshot.
			off = next
			continue
		}
		if seq <= last {
			return fmt.Errorf("%w: WAL sequence %d after %d (duplicate or out of order)", ErrCorruptLog, seq, last)
		}
		last = seq
		cp := make([]byte, len(payload))
		copy(cp, payload)
		switch kind {
		case KindFactor:
			fr, cp, err := decodeFactorEntry(cp, v)
			if err != nil {
				return err
			}
			s.factors[fr.Handle] = walEntry{seq: seq, payload: cp}
		case KindRelease:
			rr, err := decodeReleaseRecord(cp)
			if err != nil {
				return err
			}
			delete(s.factors, rr.Handle)
		case KindAnalysis:
			ar, err := decodeAnalysisRecord(cp)
			if err != nil {
				return err
			}
			s.analyses[ar.Fingerprint] = walEntry{seq: seq, payload: cp}
		default:
			return fmt.Errorf("%w: unknown WAL record kind %d", ErrCorruptLog, kind)
		}
		off = next
	}
	s.seq = last
	s.walBytes = int64(off)
	return nil
}

// write pushes b through the crash injector to the file. One append = one
// write call, so an injected crash tears exactly one record.
func (s *Store) write(f *os.File, b []byte) error {
	s.writes++
	if s.opts.CrashAfterWrites > 0 && s.writes >= s.opts.CrashAfterWrites {
		// Persist a seeded prefix — the torn write a real crash leaves — then
		// die for good.
		n := int(crashFrac(s.opts.CrashSeed, s.writes) * float64(len(b)))
		if n >= len(b) {
			n = len(b) - 1
		}
		if n > 0 {
			_, _ = f.Write(b[:n])
			_ = f.Sync()
		}
		s.crashed = true
		return ErrInjectedCrash
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	if s.opts.NoSync {
		return nil
	}
	return f.Sync()
}

// crashFrac draws the deterministic partial-write fraction in [0,1) for
// (seed, write index) — the splitmix64 counter-hash discipline of
// internal/faults, with no shared stream state.
func crashFrac(seed int64, write int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(write)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (s *Store) appendLocked(kind Kind, payload []byte, apply func(seq uint64)) error {
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrInjectedCrash
	}
	seq := s.seq + 1
	frame := appendFrame(nil, kind, seq, payload)
	if err := s.write(s.wal, frame); err != nil {
		return err
	}
	s.seq = seq
	s.walBytes += int64(len(frame))
	s.walRecords++
	apply(seq)
	if s.walRecords >= s.opts.SnapshotEvery {
		// Compaction failure is not append failure: the record above is
		// durable either way. A failed snapshot (ENOSPC, injected crash)
		// leaves old-snapshot + full-WAL, which replays to the same state.
		if err := s.snapshotLocked(); err != nil && !errors.Is(err, ErrInjectedCrash) {
			return nil
		}
	}
	return nil
}

// AppendFactor journals one committed factorization. It must complete before
// the handle is acknowledged to the client: fsync-before-ack is what makes
// "durable: true" honest.
func (s *Store) AppendFactor(r *FactorRecord) error {
	payload := encodeFactorRecord(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(KindFactor, payload, func(seq uint64) {
		s.factors[r.Handle] = walEntry{seq: seq, payload: payload}
	})
}

// AppendRelease journals a handle tombstone.
func (s *Store) AppendRelease(handle string) error {
	payload := encodeReleaseRecord(&ReleaseRecord{Handle: handle})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(KindRelease, payload, func(uint64) {
		delete(s.factors, handle)
	})
}

// AppendAnalysis journals an analyze-time cache warm. Idempotent per
// fingerprint: re-analyzing a known pattern does not grow the log.
func (s *Store) AppendAnalysis(r *AnalysisRecord) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.analyses[r.Fingerprint]; ok {
		return false, nil
	}
	payload := encodeAnalysisRecord(r)
	err := s.appendLocked(KindAnalysis, payload, func(seq uint64) {
		s.analyses[r.Fingerprint] = walEntry{seq: seq, payload: payload}
	})
	return err == nil, err
}

// snapshotLocked rewrites the live state as snapshot.tmp, commits it with an
// atomic rename (after fsync of file and directory), then truncates the WAL.
// A crash at any point leaves a recoverable combination: old snapshot + full
// WAL, or new snapshot + stale WAL prefix (skipped on replay by sequence).
func (s *Store) snapshotLocked() error {
	hdr := &enc{}
	hdr.u64(s.seq)
	out := appendFrame(nil, KindSnapshot, s.seq, hdr.b)
	// Deterministic record order: by committing sequence.
	type kv struct {
		e    walEntry
		kind Kind
	}
	all := make([]kv, 0, len(s.factors)+len(s.analyses))
	for _, e := range s.analyses {
		all = append(all, kv{e, KindAnalysis})
	}
	for _, e := range s.factors {
		all = append(all, kv{e, KindFactor})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.seq < all[j].e.seq })
	for _, it := range all {
		out = appendFrame(out, it.kind, it.e.seq, it.e.payload)
	}
	tmp := filepath.Join(s.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := s.write(f, out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		// The rename may not be durable, so the WAL can still be the only
		// durable copy of its records: keep it. The next append retries
		// the compaction.
		return fmt.Errorf("store: syncing %s after the snapshot rename: %w", s.dir, err)
	}
	// The snapshot is durable; the WAL prefix is now stale and can go.
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	if !s.opts.NoSync {
		_ = s.wal.Sync()
	}
	s.walBytes = 0
	s.walRecords = 0
	s.snapshots++
	return nil
}

// syncDir makes the rename itself durable.
func (s *Store) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	return s.dirSync(s.dir)
}

// fsyncDir fsyncs the directory dir.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Stats is a point-in-time observability sample.
type Stats struct {
	WALBytes     int64
	WALRecords   int
	Snapshots    int64
	LiveFactors  int
	LiveAnalyses int
}

// Stats samples the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALBytes: s.walBytes, WALRecords: s.walRecords, Snapshots: s.snapshots,
		LiveFactors: len(s.factors), LiveAnalyses: len(s.analyses),
	}
}

// Close releases the WAL file. Appends after Close fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
