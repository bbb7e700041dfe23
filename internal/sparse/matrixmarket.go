package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market exchange format (coordinate, real/integer/pattern,
// symmetric). This is the format most modern sparse collections (SuiteSparse)
// distribute, complementing the Harwell-Boeing RSA reader the paper's
// problems used.

// mmReader reads a Matrix Market stream line by line out of its buffer:
// lines and their fields are slices of the buffered bytes, valid until the
// next line is read, so a data line costs no allocation.
type mmReader struct {
	br     *bufio.Reader
	long   []byte   // a line longer than the buffer, reassembled
	fields [][]byte // the fields of the last entry line
}

func newMMReader(r io.Reader) *mmReader {
	return &mmReader{br: bufio.NewReaderSize(r, 64<<10), fields: make([][]byte, 0, 8)}
}

// line returns the next line, '\n' included, like bufio.Reader.ReadString:
// err is non-nil only at the end of the stream (or on a read error), when
// line holds whatever followed the last newline.
func (r *mmReader) line() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// byteClass sorts bytes for field splitting: 1 for the ASCII part of
// unicode.IsSpace (the separator set of strings.Fields and
// strings.TrimSpace), 2 for non-ASCII bytes, 0 otherwise.
var byteClass = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\v\f\r") {
		t[c] = 1
	}
	for c := 0x80; c < 256; c++ {
		t[c] = 2
	}
	return t
}()

// trim is strings.TrimSpace on bytes. A line whose ends, once ASCII space
// is stripped, are not ASCII (where a Unicode space could sit) goes through
// strings.TrimSpace itself.
func trim(line []byte) []byte {
	lo, hi := 0, len(line)
	for lo < hi && byteClass[line[lo]] == 1 {
		lo++
	}
	for hi > lo && byteClass[line[hi-1]] == 1 {
		hi--
	}
	if lo < hi && (byteClass[line[lo]] == 2 || byteClass[line[hi-1]] == 2) {
		return []byte(strings.TrimSpace(string(line)))
	}
	return line[lo:hi]
}

// split is strings.Fields on a line, into r.fields. A line holding
// non-ASCII bytes goes through strings.Fields itself.
func (r *mmReader) split(line []byte) [][]byte {
	f := r.fields[:0]
	start := -1
	for i, c := range line {
		switch byteClass[c] {
		case 0:
			if start < 0 {
				start = i
			}
		case 1:
			if start >= 0 {
				f = append(f, line[start:i])
				start = -1
			}
		default:
			f = f[:0]
			for _, s := range strings.Fields(string(line)) {
				f = append(f, []byte(s))
			}
			r.fields = f
			return f
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	r.fields = f
	return f
}

// atoi and parseFloat run strconv on a field; the short string conversion
// stays on the stack.
func atoi(b []byte) (int, error)           { return strconv.Atoi(string(b)) }
func parseFloat(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }

// header reads the banner line and returns its lower-cased fields and the
// line itself.
func (r *mmReader) header() (fields []string, header string, err error) {
	line, err := r.line()
	if err != nil {
		return nil, "", fmt.Errorf("sparse: mm header: %w", err)
	}
	header = string(line)
	return strings.Fields(strings.ToLower(header)), header, nil
}

// next returns the next line that is neither blank nor a comment, trimmed;
// at the end of the stream it returns the error of the read that hit it.
func (r *mmReader) next() ([]byte, error) {
	for {
		line, err := r.line()
		trimmed := trim(line)
		if err != nil && len(trimmed) == 0 {
			return nil, err
		}
		if len(trimmed) == 0 || trimmed[0] == '%' {
			continue
		}
		return trimmed, nil
	}
}

// size reads the size line: the order and the entry count.
func (r *mmReader) size() (n, nnz int, err error) {
	line, err := r.line()
	for ; ; line, err = r.line() {
		if err != nil && len(line) == 0 {
			return 0, 0, fmt.Errorf("sparse: mm size line missing: %w", err)
		}
		if t := trim(line); len(t) != 0 && t[0] != '%' {
			line = t
			break
		}
	}
	sf := r.split(line)
	if len(sf) != 3 {
		return 0, 0, fmt.Errorf("sparse: bad mm size line %q", line)
	}
	nrow, err1 := atoi(sf[0])
	ncol, err2 := atoi(sf[1])
	nnz, err3 := atoi(sf[2])
	if err1 != nil || err2 != nil || err3 != nil || nrow != ncol || nrow <= 0 || nnz < 0 {
		return 0, 0, fmt.Errorf("sparse: bad mm dimensions %q", line)
	}
	return nrow, nnz, nil
}

// reserve is the triplet capacity to allocate up front for nnz declared
// entries: the declared count, up to a bound a bogus header cannot exceed.
func reserve(nnz int) int { return min(nnz, 1<<20) }

// ReadMatrixMarket parses a symmetric coordinate Matrix Market stream.
// General (non-symmetric header) inputs are accepted only if they are
// numerically symmetric; pattern matrices get unit diagonals and -1/deg
// off-diagonals to stay SPD-friendly.
func ReadMatrixMarket(r io.Reader) (*SymMatrix, error) {
	mr := newMMReader(r)
	fields, header, err := mr.header()
	if err != nil {
		return nil, err
	}
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket file: %q", strings.TrimSpace(header))
	}
	format, valtype, symmetry := fields[2], fields[3], fields[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", format)
	}
	switch valtype {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported value type %q", valtype)
	}
	switch symmetry {
	case "symmetric", "general":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symmetry)
	}
	nrow, nnz, err := mr.size()
	if err != nil {
		return nil, err
	}

	// Entries in file order, 0-based.
	ts := make([]triplet[float64], 0, reserve(nnz))
	for len(ts) < nnz {
		trimmed, err := mr.next()
		if err != nil {
			return nil, fmt.Errorf("sparse: mm data truncated after %d of %d entries", len(ts), nnz)
		}
		f := mr.split(trimmed)
		if (valtype == "pattern" && len(f) < 2) || (valtype != "pattern" && len(f) < 3) {
			return nil, fmt.Errorf("sparse: bad mm entry %q", trimmed)
		}
		i, err1 := atoi(f[0])
		j, err2 := atoi(f[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 || i > nrow || j > nrow {
			return nil, fmt.Errorf("sparse: bad mm indices %q", trimmed)
		}
		v := 1.0
		if valtype != "pattern" {
			v, err = parseFloat(f[2])
			if err != nil {
				return nil, fmt.Errorf("sparse: bad mm value %q", trimmed)
			}
		}
		ts = append(ts, triplet[float64]{i - 1, j - 1, v})
	}

	b := &Builder{n: nrow, ts: ts}
	if symmetry == "general" {
		// Must be numerically symmetric; verify pairs, then keep the lower
		// triangle only (the upper is the mirror).
		if err := checkSymmetric(nrow, ts); err != nil {
			return nil, err
		}
		lower := ts[:0]
		for _, e := range ts {
			if e.i >= e.j {
				lower = append(lower, e)
			}
		}
		b.ts = lower
	} else {
		for k, e := range ts {
			if e.i < e.j {
				ts[k].i, ts[k].j = e.j, e.i
			}
		}
	}
	a := b.Build()
	if valtype == "pattern" {
		// Pattern-only: synthesize a diagonally dominant SPD matrix on the
		// given structure so the result is factorizable.
		deg := make([]float64, a.N)
		for j := 0; j < a.N; j++ {
			for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
				deg[a.RowIdx[p]]++
				deg[j]++
			}
		}
		for j := 0; j < a.N; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if a.RowIdx[p] == j {
					a.Val[p] = deg[j] + 1
				} else {
					a.Val[p] = -1
				}
			}
		}
	}
	return a, nil
}

// checkSymmetric verifies that every off-diagonal entry (i,j,v) of a
// general file has a mirror (j,i) whose value — the last one given for
// that position — equals v. It reports the first failing entry in file
// order.
func checkSymmetric(n int, ts []triplet[float64]) error {
	// Entries ordered by (row, column), ties in file order.
	order, end := stableOrder(n, len(ts),
		func(k int) int { return ts[k].i }, func(k int) int { return ts[k].j })
	for _, e := range ts {
		if e.i == e.j {
			continue
		}
		// The last entry of row e.j at column e.i.
		lo := 0
		if e.j > 0 {
			lo = end[e.j-1]
		}
		row := order[lo:end[e.j]]
		q, hi := 0, len(row)
		for q < hi { // first position with column > e.i
			mid := int(uint(q+hi) >> 1)
			if ts[row[mid]].j <= e.i {
				q = mid + 1
			} else {
				hi = mid
			}
		}
		if q == 0 || ts[row[q-1]].j != e.i || ts[row[q-1]].v != e.v {
			return fmt.Errorf("sparse: general mm matrix is not symmetric at (%d,%d)", e.i+1, e.j+1)
		}
	}
	return nil
}

// appendEntry appends "i j" (1-based) and the formatted values of one entry.
func appendEntry(buf []byte, i, j int, vals ...float64) []byte {
	buf = strconv.AppendInt(buf, int64(i+1), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(j+1), 10)
	for _, v := range vals {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', 17, 64)
	}
	return append(buf, '\n')
}

// writeMM writes the banner, the comment lines and the size line, then one
// line per stored entry from entry(buf, p).
func writeMM(w io.Writer, banner, comment string, n, nnz int, colPtr, rowIdx []int, entry func(buf []byte, i, j, p int) []byte) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(banner)
	bw.WriteByte('\n')
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			bw.WriteString("% ")
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	buf := make([]byte, 0, 128)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(nnz), 10)
	buf = append(buf, '\n')
	bw.Write(buf)
	for j := 0; j < n; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			buf = entry(buf[:0], rowIdx[p], j, p)
			bw.Write(buf)
		}
	}
	return bw.Flush()
}

// WriteMatrixMarket writes the matrix in symmetric coordinate format.
func WriteMatrixMarket(w io.Writer, a *SymMatrix, comment string) error {
	return writeMM(w, "%%MatrixMarket matrix coordinate real symmetric", comment, a.N, a.NNZ(), a.ColPtr, a.RowIdx,
		func(buf []byte, i, j, p int) []byte { return appendEntry(buf, i, j, a.Val[p]) })
}

// ReadMatrixMarketComplex parses a complex symmetric coordinate Matrix
// Market stream (entries: i j re im).
func ReadMatrixMarketComplex(r io.Reader) (*ZSymMatrix, error) {
	mr := newMMReader(r)
	fields, header, err := mr.header()
	if err != nil {
		return nil, err
	}
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" ||
		fields[2] != "coordinate" || fields[3] != "complex" || fields[4] != "symmetric" {
		return nil, fmt.Errorf("sparse: want complex symmetric coordinate MatrixMarket, got %q",
			strings.TrimSpace(header))
	}
	nrow, nnz, err := mr.size()
	if err != nil {
		return nil, err
	}
	b := NewZBuilder(nrow)
	b.ts = make([]triplet[complex128], 0, reserve(nnz))
	for read := 0; read < nnz; read++ {
		trimmed, err := mr.next()
		if err != nil {
			return nil, fmt.Errorf("sparse: mm data truncated after %d of %d entries", read, nnz)
		}
		f := mr.split(trimmed)
		if len(f) < 4 {
			return nil, fmt.Errorf("sparse: bad complex mm entry %q", trimmed)
		}
		i, err1 := atoi(f[0])
		j, err2 := atoi(f[1])
		re, err3 := parseFloat(f[2])
		im, err4 := parseFloat(f[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
			i < 1 || j < 1 || i > nrow || j > nrow {
			return nil, fmt.Errorf("sparse: bad complex mm entry %q", trimmed)
		}
		b.Add(i-1, j-1, complex(re, im))
	}
	return b.Build(), nil
}

// WriteMatrixMarketComplex writes the matrix in complex symmetric coordinate
// format.
func WriteMatrixMarketComplex(w io.Writer, a *ZSymMatrix, comment string) error {
	return writeMM(w, "%%MatrixMarket matrix coordinate complex symmetric", comment, a.N, a.NNZ(), a.ColPtr, a.RowIdx,
		func(buf []byte, i, j, p int) []byte { return appendEntry(buf, i, j, real(a.Val[p]), imag(a.Val[p])) })
}
