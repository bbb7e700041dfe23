package numtext

import (
	"math"
	"math/bits"
	"strconv"
)

// maxMantDigits is the most significant decimal digits a uint64 mantissa
// holds for every value.
const maxMantDigits = 19

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ParseNumber scans the JSON number (RFC 8259 §6:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) starting at data[i] and
// returns its value, rounded exactly as strconv.ParseFloat rounds it, and the
// index after it. Like a JSON tokenizer it stops at the first byte that
// cannot continue the number, and reports false when what it read is not a
// whole number ("", "-", "1.", "1e+") and when the value overflows float64,
// where strconv.ParseFloat fails with ErrRange. What follows the number
// ("0123" stops after "0") is the caller's to check.
func ParseNumber(data []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10 := 0, 0 // digits in man; value = man × 10^exp10
	trunc := false    // a nonzero digit did not fit in man
	if i >= len(data) {
		return 0, 0, false
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(data[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || data[i] != '0'
			}
		}
	default:
		return 0, 0, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		frac, nd0 := i, nd
		if nd == 0 {
			for i < len(data) && data[i] == '0' {
				i++ // leading zeros
			}
		}
		zeros := i - frac
		for nd <= maxMantDigits-8 && len(data)-i >= 8 {
			v := load8(data[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + parse8(v)
			nd += 8
			i += 8
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(data[i]-'0')
				nd++
			} else {
				trunc = trunc || data[i] != '0'
			}
		}
		if i == frac {
			return 0, 0, false
		}
		exp10 -= zeros + nd - nd0
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := i < len(data) && data[i] == '-'
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		digits := i
		e := 0
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			// Saturate where strconv does, so a long exponent means
			// the same to both.
			if e < 10000 {
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == digits {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if !trunc {
		if f, ok := convert(man, exp10, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	return f, i, err == nil
}

// load8 returns data[0:8] as a little-endian word: the first byte lowest.
func load8(data []byte) uint64 {
	_ = data[7]
	return uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
		uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
}

// eightDigits reports whether all eight bytes of v are ASCII digits: each
// has high nibble 3, and adding 6 to its low nibble does not carry.
func eightDigits(v uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return (v&hi)|((v+0x0606060606060606)&hi)>>4 == 0x3333333333333333
}

// parse8 returns the value of the eight ASCII digits in v, the first digit
// in the lowest byte, by merging neighbours: pairs, then quads, then the
// two halves, each step one multiply.
func parse8(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each even byte now holds a two-digit pair
	const mask = 0x000000FF000000FF
	// Pairs p0..p3 (bytes 0, 2, 4, 6): p0·10^6 + p1·10^4 + p2·10^2 + p3,
	// gathered in the high word.
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// convert returns ±man × 10^exp10 correctly rounded, or false when neither
// Clinger's fast path nor Eisel–Lemire can decide it.
func convert(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: man and 10^|exp10| are exact doubles, so one rounding
	// gives the correctly rounded quotient or product.
	if man <= 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// eiselLemire converts man × 10^exp10 (man ≠ 0) by one or two 64×64-bit
// products with the 128-bit power of ten. It declines a product too close to
// a rounding boundary to decide from 128 bits, a subnormal result and an
// overflow; strconv settles those.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	p := pow10(exp10)
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// ⌊exp10 × log2(10)⌋ + 64 + the exponent bias, less the shift.
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, p.hi)
	// When the low bits of the leading product sit at the edge of a
	// rounding decision, bring in the product with the low word.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, p.lo)
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	mant := xHi >> (msb + 9) // 54 bits: the mantissa and a rounding bit
	retExp2 -= 1 ^ msb
	// An exact halfway case: round-half-even needs bits 128 cannot show.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}
	// Zero or below is subnormal and 0x7FF or above is infinite: decline
	// both (the unsigned subtraction folds the two tests into one).
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
