package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/pastix-go/pastix/internal/numtext"
)

// Matrix Market exchange format (coordinate; real, integer, pattern or
// complex; symmetric). This is the format most modern sparse collections (SuiteSparse)
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

// atoi runs strconv on a field; the short string conversion stays on the
// stack.
func atoi(b []byte) (int, error) { return strconv.Atoi(string(b)) }

// parseFloat parses a value field. A field that is one JSON number, the form
// writers emit, takes numtext's exact single-pass parser, which returns
// strconv's bits; every other field (+1, 1., .5, inf, hex, out of range) goes
// to strconv.ParseFloat, which decides what is accepted and words the error.
func parseFloat(b []byte) (float64, error) {
	if f, n, ok := numtext.ParseNumber(b, 0); ok && n == len(b) {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

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

// ReadMatrixMarket parses a real symmetric coordinate Matrix Market stream
// (see readMatrixMarket).
func ReadMatrixMarket(r io.Reader) (*SymMatrix, error) { return readMatrixMarket[float64](r) }

// ReadMatrixMarketComplex parses a complex symmetric coordinate Matrix
// Market stream (entries: i j re im; see readMatrixMarket).
func ReadMatrixMarketComplex(r io.Reader) (*ZSymMatrix, error) {
	return readMatrixMarket[complex128](r)
}

// readMatrixMarket parses a coordinate Matrix Market stream whose header
// names T's values: real, integer or pattern for float64, complex for
// complex128. General (non-symmetric header) inputs are accepted only if
// they are numerically symmetric; pattern matrices get the SPD-safe values
// of spdValues.
func readMatrixMarket[T Scalar](r io.Reader) (*Sym[T], error) {
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
	// nv is the number of value fields per entry.
	nv := -1
	switch valtype {
	case "pattern":
		nv = 0
	case "real", "integer":
		nv = 1
	case "complex":
		nv = 2
	}
	if nv < 0 || (nv == 2) != isComplex[T]() {
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
	ts := make([]triplet[T], 0, reserve(nnz))
	for len(ts) < nnz {
		trimmed, err := mr.next()
		if err != nil {
			return nil, fmt.Errorf("sparse: mm data truncated after %d of %d entries", len(ts), nnz)
		}
		f := mr.split(trimmed)
		if len(f) < 2+nv {
			return nil, fmt.Errorf("sparse: bad mm entry %q", trimmed)
		}
		i, err1 := atoi(f[0])
		j, err2 := atoi(f[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 || i > nrow || j > nrow {
			return nil, fmt.Errorf("sparse: bad mm indices %q", trimmed)
		}
		v, err := parseValue[T](f[2 : 2+nv])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad mm value %q", trimmed)
		}
		ts = append(ts, triplet[T]{i - 1, j - 1, v})
	}

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
		ts = lower
	} else {
		for k, e := range ts {
			if e.i < e.j {
				ts[k].i, ts[k].j = e.j, e.i
			}
		}
	}
	a := (&SymBuilder[T]{n: nrow, ts: ts}).Build()
	if nv == 0 {
		// Pattern-only: synthesize values that make the result factorizable.
		spdValues(any(a).(*SymMatrix))
	}
	return a, nil
}

// parseValue parses the value fields of one entry: none (a pattern entry,
// read as 1), one real, or the real and imaginary parts of a complex one.
func parseValue[T Scalar](f [][]byte) (v T, err error) {
	switch p := any(&v).(type) {
	case *float64:
		*p = 1
		if len(f) == 1 {
			*p, err = parseFloat(f[0])
		}
	case *complex128:
		re, err1 := parseFloat(f[0])
		im, err2 := parseFloat(f[1])
		*p, err = complex(re, im), errors.Join(err1, err2)
	}
	return v, err
}

// checkSymmetric verifies that every off-diagonal entry (i,j,v) of a
// general file has a mirror (j,i) whose value — the last one given for
// that position — equals v. It reports the first failing entry in file
// order.
func checkSymmetric[T Scalar](n int, ts []triplet[T]) error {
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

// WriteMatrixMarket writes the matrix in real symmetric coordinate format.
func WriteMatrixMarket(w io.Writer, a *SymMatrix, comment string) error {
	return writeMatrixMarket(w, a, comment)
}

// WriteMatrixMarketComplex writes the matrix in complex symmetric coordinate
// format.
func WriteMatrixMarketComplex(w io.Writer, a *ZSymMatrix, comment string) error {
	return writeMatrixMarket(w, a, comment)
}

// writeMatrixMarket writes the banner for T, the comment lines and the size
// line, then one line per stored entry: "i j" (1-based) and the value, as
// re im when complex.
func writeMatrixMarket[T Scalar](w io.Writer, a *Sym[T], comment string) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if isComplex[T]() {
		bw.WriteString("%%MatrixMarket matrix coordinate complex symmetric\n")
	} else {
		bw.WriteString("%%MatrixMarket matrix coordinate real symmetric\n")
	}
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			bw.WriteString("% ")
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	buf := make([]byte, 0, 128)
	buf = strconv.AppendInt(buf, int64(a.N), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(a.N), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(a.NNZ()), 10)
	buf = append(buf, '\n')
	bw.Write(buf)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			buf = strconv.AppendInt(buf[:0], int64(a.RowIdx[p]+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(j+1), 10)
			switch v := any(a.Val[p]).(type) {
			case float64:
				buf = appendFloat(buf, v)
			case complex128:
				buf = appendFloat(appendFloat(buf, real(v)), imag(v))
			}
			bw.Write(append(buf, '\n'))
		}
	}
	return bw.Flush()
}

// appendFloat appends a space and v, exactly (17 significant digits).
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(append(buf, ' '), v, 'g', 17, 64)
}
