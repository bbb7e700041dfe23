package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/pastix-go/pastix/internal/numtext"
)

// The solve wire codec. A single-RHS solve carries n floats in and n floats
// out, and at moderate n encoding/json's reflective scanner and encoder, and
// even strconv's general float routines, cost more than the solve itself.
// Solve requests in the canonical shape are parsed in one pass, each number
// scanned and converted by numtext.ParseNumber, and solve responses are
// appended directly into a pooled buffer by numtext.AppendJSON. Both are
// exact: ParseNumber returns strconv.ParseFloat's bits (Eisel–Lemire decides
// or declines to strconv) and AppendJSON writes encoding/json's bytes, so the
// bits on the wire do not change. Any other request shape falls back to
// json.Unmarshal, which stays the reference and the source of every error
// message.

// maxPooledWire caps the buffers kept for reuse. A multi-megabyte factorize
// body is read through the same pool but its buffer is dropped afterwards, so
// the pool never pins more than this per buffer.
const maxPooledWire = 1 << 20

// wireBuf is a reusable request or response byte buffer.
type wireBuf struct{ b []byte }

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func (wb *wireBuf) release() {
	if cap(wb.b) > maxPooledWire {
		return
	}
	wb.b = wb.b[:0]
	wireBufs.Put(wb)
}

// readBody appends everything r yields to buf. A positive hint (the declared
// Content-Length, capped by the caller) sizes buf up front, with one spare
// byte so the read that meets EOF does not grow it.
func readBody(r io.Reader, buf []byte, hint int64) ([]byte, error) {
	if hint > 0 && int(hint)+1 > cap(buf) {
		buf = make([]byte, 0, int(hint)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// unmarshalBody decodes a whole request body into into. Like json.Unmarshal
// it rejects anything but whitespace after the value. A solve request in the
// canonical shape takes the single-pass parser.
func unmarshalBody(data []byte, into any) error {
	if req, ok := into.(*solveRequest); ok && parseSolveRequest(data, req) {
		return nil
	}
	return json.Unmarshal(data, into)
}

// parseSolveRequest decodes a solve body in the compact form json.Marshal
// writes into req and reports true. It takes an object with no whitespace
// inside it whose keys are exactly "handle" (a string of printable ASCII with
// no escapes), "b" (an array of JSON numbers that parse as finite float64s)
// and "deadline_ms" (an integer), in any order, a repeated key winning as in
// encoding/json. On any other input it leaves req untouched and reports
// false, and the caller falls back to json.Unmarshal.
func parseSolveRequest(data []byte, req *solveRequest) bool {
	data = bytes.Trim(data, " \t\r\n")
	if len(data) < 2 || data[0] != '{' || data[len(data)-1] != '}' {
		return false
	}
	var out solveRequest
	for i := 1; ; {
		key, j, ok := plainString(data, i)
		if !ok || j >= len(data) || data[j] != ':' {
			return false
		}
		i = j + 1
		switch string(key) {
		case "handle":
			v, j, ok := plainString(data, i)
			if !ok {
				return false
			}
			out.Handle, i = string(v), j
		case "b":
			if out.B, i, ok = parseFloatArray(data, i, out.B); !ok {
				return false
			}
		case "deadline_ms":
			// The number's end, then json.Unmarshal's int64 rule.
			_, j, ok := numtext.ParseNumber(data, i)
			if !ok {
				return false
			}
			v, err := strconv.ParseInt(string(data[i:j]), 10, 64)
			if err != nil {
				return false
			}
			out.DeadlineMS, i = v, j
		default:
			return false
		}
		if i >= len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i++
		case '}':
			if i != len(data)-1 {
				return false
			}
			*req = out
			return true
		default:
			return false
		}
	}
}

// parseFloatArray parses the JSON array of numbers starting at data[i] into
// dst[:0] (a fresh slice when dst is nil, sized by the commas left in data)
// and returns it with the index after the closing bracket.
func parseFloatArray(data []byte, i int, dst []float64) ([]float64, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return nil, 0, false
	}
	i++
	if dst == nil {
		dst = make([]float64, 0, bytes.Count(data[i:], []byte{','})+1)
	}
	dst = dst[:0]
	if i < len(data) && data[i] == ']' {
		return dst, i + 1, true
	}
	for {
		// Out-of-range literals fail here and take the fallback, which
		// reports them exactly as encoding/json does.
		f, j, ok := numtext.ParseNumber(data, i)
		if !ok || j >= len(data) {
			return nil, 0, false
		}
		dst = append(dst, f)
		switch data[j] {
		case ',':
			i = j + 1
		case ']':
			return dst, j + 1, true
		default:
			return nil, 0, false
		}
	}
}

// plainString returns the contents of the JSON string starting at data[i] and
// the index after its closing quote, when it holds only printable ASCII and no
// escapes: the strings json.Unmarshal copies byte for byte.
func plainString(data []byte, i int) ([]byte, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// errNonFinite reports a solution holding ±Inf or NaN, which JSON cannot
// carry; it is answered with a 422.
var errNonFinite = errors.New("solution is not finite: JSON cannot carry ±Inf or NaN")

// appendSolveResponse appends resp exactly as json.Encoder writes it: compact,
// the fields in declaration order with their omitempty rules, and a trailing
// newline. It fails with errNonFinite when x holds ±Inf or NaN and with an
// encode error when another float field does.
func appendSolveResponse(b []byte, resp *solveResponse) ([]byte, error) {
	b = append(b, `{"x":`...)
	if resp.X == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range resp.X {
			if !finite(v) {
				return b, errNonFinite
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = numtext.AppendJSON(b, v)
		}
		b = append(b, ']')
	}
	if resp.NRHS != 0 {
		b = appendJSONInt(append(b, `,"nrhs":`...), resp.NRHS)
	}
	b = appendJSONInt(append(b, `,"batched":`...), resp.Batched)
	if !finite(resp.SolveMS) {
		return b, fmt.Errorf("encoding solve_ms: unsupported value %v", resp.SolveMS)
	}
	b = numtext.AppendJSON(append(b, `,"solve_ms":`...), resp.SolveMS)
	if p := resp.Plan; p != nil {
		b = appendJSONInt(append(b, `,"plan":{"workers":`...), p.Workers)
		b = appendJSONInt(append(b, `,"cells":`...), p.Cells)
		b = appendJSONInt(append(b, `,"levels":`...), p.Levels)
		b = appendJSONInt(append(b, `,"parallel_steps":`...), p.ParallelSteps)
		b = appendJSONInt(append(b, `,"chain_cells":`...), p.ChainCells)
		b = appendJSONInt(append(b, `,"split_cells":`...), p.SplitCells)
		b = appendJSONInt(append(b, `,"max_level_width":`...), p.MaxLevelWidth)
		b = append(b, '}')
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(resp.PerturbedColumns) > 0 {
		b = append(b, `,"perturbed_columns":[`...)
		for i, c := range resp.PerturbedColumns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONInt(b, c)
		}
		b = append(b, ']')
	}
	if resp.BackwardError != 0 {
		if !finite(resp.BackwardError) {
			return b, fmt.Errorf("encoding backward_error: unsupported value %v", resp.BackwardError)
		}
		b = numtext.AppendJSON(append(b, `,"backward_error":`...), resp.BackwardError)
	}
	if resp.RefineIters != 0 {
		b = appendJSONInt(append(b, `,"refine_iters":`...), resp.RefineIters)
	}
	return append(b, "}\n"...), nil
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func appendJSONInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// writeBody sends a complete JSON body with its Content-Length in one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one left to tell.
	_, _ = w.Write(body)
}

// writeSolve answers a solve with the hand-encoded response body.
func (s *Server) writeSolve(w http.ResponseWriter, resp *solveResponse) {
	wb := getWireBuf()
	defer wb.release()
	var err error
	if wb.b, err = appendSolveResponse(wb.b[:0], resp); err != nil {
		s.writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, wb.b)
}
