package numtext

import (
	"math"
	"math/bits"
	"strconv"
)

// digitPairs holds "00" through "99", for writing two digits at a time.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10u64 holds 10^k for k in [0, 19].
var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// AppendJSON appends f exactly as encoding/json encodes a float64: the
// shortest digits that round-trip, in 'f' notation for magnitudes in
// [1e-6, 1e21) and zero, and in 'e' notation outside it with a one-digit
// negative exponent unpadded (1e-7, not 1e-07). JSON cannot carry ±Inf or NaN;
// for them it appends what strconv.AppendFloat does, and callers reject them
// first.
func AppendJSON(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	exp := int(fb>>52) & 0x7FF
	mant := fb & (1<<52 - 1)
	switch exp {
	case 0x7FF:
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	case 0:
		exp = -1074 // subnormal
	default:
		mant |= 1 << 52
		exp -= 1075
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if mant == 0 {
		return append(b, '0')
	}
	d, e10 := shortest(mant, exp)
	nd := decimalLen(d)
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		return appendExp(b, d, nd, nd+e10-1)
	}
	switch dp := nd + e10; {
	case dp <= 0: // 0.000ddd
		s := len(b)
		b = append(b, make([]byte, 2-dp+nd)...)
		b[s], b[s+1] = '0', '.'
		for k := s + 2; k < s+2-dp; k++ {
			b[k] = '0'
		}
		putDigits(b[s+2-dp:], d)
	case dp >= nd: // ddd000
		s := len(b)
		b = append(b, make([]byte, dp)...)
		putDigits(b[s:s+nd], d)
		for k := s + nd; k < s+dp; k++ {
			b[k] = '0'
		}
	default: // dd.ddd: write the digits one place right, then pull the
		// integer part back over the gap.
		s := len(b)
		b = append(b, make([]byte, nd+1)...)
		putDigits(b[s+1:], d)
		copy(b[s:s+dp], b[s+1:s+1+dp])
		b[s+dp] = '.'
	}
	return b
}

// appendExp appends the nd digits of d as d.ddde±x, where x is exp10 with no
// leading zeros: encoding/json's 'e' form, whose exponent is never in (-7, 21).
func appendExp(b []byte, d uint64, nd, exp10 int) []byte {
	s := len(b)
	if nd == 1 {
		b = append(b, byte('0'+d))
	} else {
		b = append(b, make([]byte, nd+1)...)
		putDigits(b[s+1:], d)
		b[s], b[s+1] = b[s+1], '.'
	}
	sign := byte('+')
	if exp10 < 0 {
		sign, exp10 = '-', -exp10
	}
	b = append(b, 'e', sign)
	switch {
	case exp10 < 10:
		return append(b, byte('0'+exp10))
	case exp10 < 100:
		return append(b, digitPairs[2*exp10], digitPairs[2*exp10+1])
	default:
		r := exp10 % 100
		return append(b, byte('0'+exp10/100), digitPairs[2*r], digitPairs[2*r+1])
	}
}

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	// bits.Len64(d) × log10(2) undercounts by at most one.
	n := bits.Len64(d)*1233>>12 + 1
	if d < pow10u64[n-1] {
		n--
	}
	return n
}

// putDigits writes the decimal digits of d right-aligned into dst, which
// has room for exactly all of them: eight at a time in 32-bit arithmetic,
// then two at a time.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	for d >= 1e8 {
		q := d / 1e8
		put8(dst[i-8:i], uint32(d-q*1e8))
		i -= 8
		d = q
	}
	v := uint32(d)
	if v >= 1e7 {
		put8(dst[i-8:i], v)
		return
	}
	for v >= 100 {
		q := v / 100
		r := v - 100*q
		i -= 2
		dst[i], dst[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		v = q
	}
	if v >= 10 {
		dst[i-2], dst[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		dst[i-1] = byte('0' + v)
	}
}

// put8 writes v < 10^8 into dst[:8] as eight digits, zero-padded.
func put8(dst []byte, v uint32) {
	_ = dst[7]
	hi, lo := v/10000, v%10000
	a, b := hi/100, hi%100
	c, d := lo/100, lo%100
	dst[0], dst[1] = digitPairs[2*a], digitPairs[2*a+1]
	dst[2], dst[3] = digitPairs[2*b], digitPairs[2*b+1]
	dst[4], dst[5] = digitPairs[2*c], digitPairs[2*c+1]
	dst[6], dst[7] = digitPairs[2*d], digitPairs[2*d+1]
}

// shortest returns the shortest decimal d × 10^e10 (d with no trailing
// zeros) that rounds to mant × 2^exp and, among those, the one nearest to it.
// It follows strconv's Ryū variant step for step, so the digits are the ones
// strconv.AppendFloat(…, -1, 64) writes.
func shortest(mant uint64, exp int) (uint64, int) {
	// An integer of at most 53 bits: its own digits, and no neighbour is
	// admissible.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		return trimZeros(mant>>uint(-exp), 0)
	}
	// The interval (ml, mu) × 2^e2 of reals that round to mc × 2^e2. At a
	// power of two above the smallest normal the gap below is half the gap
	// above.
	ml, mc, mu, e2 := 2*mant-1, 2*mant, 2*mant+1, exp-1
	if mant == 1<<52 && exp > -1074 {
		ml, mc, mu, e2 = 4*mant-1, 4*mant, 4*mant+2, exp-2
	}
	if e2 == 0 { // already integers, and exact
		return digits(ml, mc, mu, true, false)
	}
	// Scale by the smallest 10^q above 2^-e2 and keep an integer part.
	q := (-e2)*78913>>18 + 1 // ⌊−e2 × log10(2)⌋ + 1
	p := pow10(q)
	if q < 0 {
		p.lo++ // round the reciprocal up
	}
	dl, dl0 := mulPow10(ml, p)
	dc, dc0 := mulPow10(mc, p)
	du, du0 := mulPow10(mu, p)
	e2 += q*108853>>15 - 8 // ⌊q × log2(10)⌋, less the 8 bits mulPow10 drops
	if q > 55 {
		// 10^q has more than 128 significant bits: no product is exact.
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 {
		// A division by 5^-q may be exact (5^25 has 59 bits, so a
		// division by it never is).
		dl0 = dl0 || divisibleByPow5(ml, -q)
		dc0 = dc0 || divisibleByPow5(mc, -q)
		du0 = du0 || divisibleByPow5(mu, -q)
	}
	extra := uint(-e2)
	extraMask := uint64(1)<<extra - 1
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// The upper end is admissible unless it is exact and mant is odd
	// (round-half-even would take it to the neighbour).
	if du0 && fracu == 0 && mant&1 != 0 {
		du--
	}
	// Whether the correctly rounded central value is dc+1.
	var cup bool
	if dc0 {
		cup = fracc > 1<<(extra-1) || (fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		cup = fracc>>(extra-1) == 1
	}
	// The lower end is admissible only when exact and mant is even.
	if !(dl0 && fracl == 0 && mant&1 == 0) {
		dl++
	}
	d, e10 := digits(dl, dc, du, dc0 && fracc == 0, cup)
	return d, e10 - q
}

// mulPow10 returns the top bits of m × p, for a 55-bit m and a table entry
// p ≈ 10^q × 2^(127−⌊q log2 10⌋), as a 63- or 64-bit integer r with
// m × 10^q ≈ r × 2^(⌊q log2 10⌋ − 8), and whether the bits dropped were all
// zero.
func mulPow10(m uint64, p u128) (uint64, bool) {
	l1, l0 := bits.Mul64(m, p.lo)
	h1, h0 := bits.Mul64(m, p.hi)
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, mid<<9 == 0 && l0 == 0
}

// divisibleByPow5 reports whether 5^k divides m.
func divisibleByPow5(m uint64, k int) bool {
	for ; k > 0 && m != 0; k-- {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

// digits returns the decimal d × 10^e10 (d with no trailing zeros) with the
// fewest digits in [lower, upper], rounding central, whose dropped digits are
// all zero when c0 holds and whose next digit rounds up when cup holds.
// Like strconv it works on the halves below and above 10^9.
func digits(lower, central, upper uint64, c0, cup bool) (uint64, int) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	switch {
	case uhi == 0:
		d, t := digits32(llo, clo, ulo, c0, cup)
		return trimZeros(uint64(d), t)
	case lhi < uhi:
		// Nine low digits can go at once.
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = clo > 5e8 || (clo == 5e8 && cup)
		d, t := digits32(lhi, chi, uhi, c0, cup)
		return trimZeros(uint64(d), t+9)
	default:
		// The high halves agree: keep chi, trim the low half.
		d, t := digits32(llo, clo, ulo, c0, cup)
		return trimZeros(uint64(chi)*pow10u64[9-t]+uint64(d), t)
	}
}

// digits32 trims the digits of numbers below 10^9 while [lower, upper] still
// holds a number with fewer digits, and returns the rounded central value
// and the count of digits trimmed.
func digits32(lower, central, upper uint32, c0, cup bool) (uint32, int) {
	trimmed := 0
	var next uint32 // the last digit trimmed from central
	for upper > 0 {
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			break
		}
		// Central just below l: it has crossed the lower end, so take l.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		c0 = c0 && next == 0
		next = cdigit
		lower, central, upper = l, c, u
	}
	if trimmed > 0 {
		cup = next > 5 || (next == 5 && (!c0 || central&1 == 1))
	}
	if central < upper && cup {
		central++
	}
	return central, trimmed
}

// trimZeros returns d × 10^e10 with the trailing zeros of d moved into e10.
func trimZeros(d uint64, e10 int) (uint64, int) {
	for d != 0 && d%10 == 0 {
		d /= 10
		e10++
	}
	return d, e10
}
