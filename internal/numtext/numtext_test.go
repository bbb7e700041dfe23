package numtext

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the reference grammar, built on encoding/json: the token is
// the longest prefix of s that some JSON number begins with (a prefix p does
// when p or p+"0" is valid JSON and holds no whitespace), and it is complete
// when it is itself a JSON number. "1.5x" gives "1.5", complete; "1.x" gives
// "1.", incomplete; "0123" gives "0", complete.
func jsonNumber(s string) (token string, complete bool) {
	k := 0
	for k < len(s) && strings.IndexByte("-+.eE0123456789", s[k]) >= 0 &&
		(json.Valid([]byte(s[:k+1])) || json.Valid([]byte(s[:k+1]+"0"))) {
		k++
	}
	return s[:k], k > 0 && json.Valid([]byte(s[:k]))
}

// checkParse asserts ParseNumber's verdict, end and bits on s against the
// reference grammar and strconv.ParseFloat.
func checkParse(t *testing.T, s string) {
	t.Helper()
	f, end, ok := ParseNumber([]byte(s), 0)
	tok, complete := jsonNumber(s)
	if !complete {
		if ok {
			t.Errorf("%q: parsed %v up to %d, want no number", s, f, end)
		}
		return
	}
	want, err := strconv.ParseFloat(tok, 64)
	switch {
	case ok != (err == nil):
		t.Errorf("%q: ok %v, strconv.ParseFloat error %v", s, ok, err)
	case ok && end != len(tok):
		t.Errorf("%q: end %d, want %d", s, end, len(tok))
	case ok && math.Float64bits(f) != math.Float64bits(want):
		t.Errorf("%q: %b, strconv.ParseFloat %b", s, f, want)
	}
}

// checkAppend asserts AppendJSON's bytes for f against json.Marshal.
func checkAppend(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendJSON([]byte("x"), f); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Errorf("%b (%v): AppendJSON %s, encoding/json %s", f, f, got, want)
	}
}

// hardFloats are the values where parsing or formatting goes wrong first:
// subnormals, the normal boundary, powers of two (whose rounding interval is
// asymmetric), the 'f'/'e' cutoffs, and the ends of the range.
func hardFloats() []float64 {
	vals := []float64{
		0, 1, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 123456789, 9007199254740992, 9007199254740993,
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // the largest subnormal
		0x1p-1022, math.MaxFloat64, 1e308, 1.7976931348623157e308, 2.2250738585072011e-308,
		2.2250738585072014e-308, 5e-324, 1e-323, 1e23, 8.41e21, 5e-310, 1e22, 1e15, 1e16, 1e17,
		123456789012345678, 0.000001, 0.0000001, 299792458, 6.02214076e23, 1.602176634e-19,
	}
	for _, edge := range []float64{1e-7, 1e-6, 1e-5, 1, 1e15, 1e20, 1e21, 1e22, 0x1p53} {
		vals = append(vals, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		vals = append(vals, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for q := -325; q <= 308; q++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(q), 64)
		vals = append(vals, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	return vals
}

func TestAppendJSONHardCases(t *testing.T) {
	for _, v := range hardFloats() {
		checkAppend(t, v)
		checkAppend(t, -v)
	}
	checkAppend(t, math.Copysign(0, -1))
}

func TestAppendJSONRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			checkAppend(t, f)
		}
	}
	// Short decimals, whose digit trimming runs longest.
	for i := 0; i < 100000; i++ {
		f, err := strconv.ParseFloat(strconv.Itoa(rng.Intn(100000))+"e"+strconv.Itoa(rng.Intn(630)-330), 64)
		if err == nil {
			checkAppend(t, f)
		}
	}
}

func TestAppendJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := AppendJSON(nil, f), strconv.AppendFloat(nil, f, 'f', -1, 64); !bytes.Equal(got, want) {
			t.Errorf("%v: AppendJSON %s, want %s", f, got, want)
		}
	}
}

func TestParseNumberHardCases(t *testing.T) {
	cases := []string{
		"0", "-0", "-0.0", "0e0", "-0e-5", "0.000", "0e999999", "1", "-1", "9", "10", "0.5", "-0.5",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"18014398509481985", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"9999999999999999999", "10000000000000000000", "18446744073709551615", "18446744073709551616",
		"1234567890123456789", "12345678901234567890", "1234567890123456789.5",
		"0.1234567890123456789", "0.12345678901234567890", "0.12345678901234567891",
		"100000000000000000000", "100000000000000000000.0000", "1000000000000000000000e-1",
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"2.225073858507201136057409796709131975934819546351645648e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1.8e308",
		"1e308", "1e309", "-1e309", "1e-324", "1e-325", "1e-400", "1e400", "1e-350", "1e-348", "1e347",
		"1e22", "1e23", "1e-22", "1e-23", "9e22", "3e22", "1e-7", "1e-6", "1e21", "1e20", "1E21",
		"1e+21", "1.5e-07", "7.0e-10", "123e-2", "0.000001", "0.0000001", "123.456e+3",
		"2.2250738585072011e-308", "4.4501477170144023e-308", "8.98846567431158e307",
		"1e0000000000000000000000000000001", "1e-0000000000000000000000000000001", "1e100000", "1e-100000",
		"0.00000000000000000000000000000000000000000000000000000000000000000000001e70",
		// Not JSON numbers, or only a prefix of them is.
		"", "-", "+1", ".5", "1.", "1.e5", "01", "-01", "1e", "1e+", "1e-", "--1", "1.5.5",
		"inf", "NaN", "0x10", "1_000", " 1", "1 ", "1,2", "1]", "1e5x", "-.5",
	}
	for _, s := range cases {
		checkParse(t, s)
	}
	for _, v := range hardFloats() {
		for _, f := range []float64{v, -v} {
			for _, s := range []string{
				strconv.FormatFloat(f, 'g', -1, 64), strconv.FormatFloat(f, 'e', 16, 64),
				strconv.FormatFloat(f, 'e', 20, 64), strconv.FormatFloat(f, 'e', 25, 64),
			} {
				checkParse(t, s)
			}
		}
	}
}

// Halfway cases: a decimal exactly between two adjacent doubles rounds to
// the even one, which Eisel–Lemire cannot see from 128 bits and declines.
// Such decimals fit in 19 digits only as n × 2^j (n odd, 54 bits) for small
// j, written D × 10^q when 5^q divides n, or as n × 5^j × 10^-j.
func TestParseNumberHalfway(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		q := rng.Intn(23)
		p5 := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(q)), nil)
		// An odd r with n = r × 5^q in [2^53, 2^54).
		lo := new(big.Int).Quo(new(big.Int).Lsh(big.NewInt(1), 53), p5)
		r := new(big.Int).Add(lo, big.NewInt(rng.Int63n(lo.Int64()+1)))
		r.SetBit(r, 0, 1)
		n := new(big.Int).Mul(r, p5)
		if n.BitLen() != 54 {
			continue
		}
		for j := q; j <= q+6; j++ {
			d := new(big.Int).Lsh(r, uint(j-q))
			s := d.String() + "e" + strconv.Itoa(q)
			checkParse(t, s)
			checkParse(t, "-"+s)
		}
		for j := 1; j <= 3; j++ {
			d := new(big.Int).Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(j)), nil))
			checkParse(t, d.String()+"e-"+strconv.Itoa(j))
		}
		// 17 and 19 significant digits near, not at, a midpoint.
		f := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if g := math.Nextafter(f, math.Inf(1)); !math.IsInf(g, 0) && !math.IsNaN(f) {
			mid := new(big.Float).SetPrec(2000).Add(new(big.Float).SetFloat64(f), new(big.Float).SetFloat64(g))
			mid.Quo(mid, big.NewFloat(2))
			checkParse(t, mid.Text('e', 16))
			checkParse(t, mid.Text('e', 18))
		}
	}
	for _, s := range []string{"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5"} {
		checkParse(t, s)
	}
}

func TestParseNumberRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		checkParse(t, string(AppendJSON(nil, f)))
		checkParse(t, strconv.FormatFloat(f, 'e', rng.Intn(20), 64))
	}
	// Random digit strings and exponents, most of them beyond the fast paths.
	for i := 0; i < 30000; i++ {
		n := 1 + rng.Intn(22)
		var b []byte
		for k := 0; k < n; k++ {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		if b[0] == '0' {
			b[0] = '1'
		}
		if rng.Intn(2) == 0 {
			p := 1 + rng.Intn(n)
			if p < n {
				b = append(b[:p], append([]byte{'.'}, b[p:]...)...)
			}
		}
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(rng.Intn(700)-350), 10)
		checkParse(t, string(b))
	}
}

// FuzzParseNumber checks ParseNumber against the JSON number grammar (same
// verdict, same end) and strconv.ParseFloat (same bits, same range verdict).
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "-1.5e-7", "0.1", "9007199254740993", "1e23", "4.9e-324", "2.2250738585072011e-308",
		"1.7976931348623159e308", "1e-400", "12345678901234567890123", "0.000123456789012345678901",
		"1e", "01", "1.", "-", ".5", "1e5,", "123]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 400 {
			return // the reference grammar check is quadratic
		}
		checkParse(t, s)
	})
}

// FuzzAppendJSON checks AppendJSON against json.Marshal for every finite
// float64.
func FuzzAppendJSON(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-7, 1e21, 5e-324, 0x1p-1022, math.MaxFloat64, 9007199254740993} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		checkAppend(t, v)
	})
}
