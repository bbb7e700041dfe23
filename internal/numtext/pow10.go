// Package numtext converts between float64 and the decimal text of JSON
// numbers, exactly and faster than the general strconv routines: ParseNumber
// returns the bits strconv.ParseFloat returns for a JSON number token, and
// AppendJSON appends the bytes encoding/json writes for a finite float64.
//
// Parsing scans the token once into a mantissa of at most 19 significant
// digits and a decimal exponent, then converts with Clinger's fast path
// (exact double arithmetic) or the Eisel–Lemire algorithm (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021). Eisel–Lemire either returns the
// correctly rounded result or declines; a declined token, one with more than
// 19 significant digits and one out of range go to strconv.ParseFloat.
//
// Formatting finds the shortest digits that round-trip with the Ryū interval
// method (Adams, "Ryū: Fast Float-to-String Conversion", PLDI 2018), in the
// variant strconv uses, and lays them out with encoding/json's choice between
// 'f' and 'e' notation, two digits at a time.
//
// Both halves read one table of 128-bit powers of ten, built on first use.
package numtext

import (
	"math/big"
	"sync"
)

// The table covers 10^q for q in [minPow10, maxPow10], enough for every
// float64 and for every decimal exponent Eisel–Lemire can resolve.
const (
	minPow10 = -348
	maxPow10 = 347
)

// u128 is the high and low words of a 128-bit unsigned integer.
type u128 struct{ hi, lo uint64 }

var (
	pow10Once sync.Once
	pow10Tab  *[maxPow10 - minPow10 + 1]u128
)

// pow10 returns 10^q scaled by a power of two into [2^127, 2^128): the
// leading 128 bits of 10^q, truncated, for q ≥ 0, and ⌊2^(127+k) / 10^−q⌋
// for q < 0, where 10^−q has k bits. These are the entries of strconv's
// detailedPowersOfTen table.
func pow10(q int) u128 {
	pow10Once.Do(buildPow10)
	return pow10Tab[q-minPow10]
}

func buildPow10() {
	tab := new([maxPow10 - minPow10 + 1]u128)
	ten := big.NewInt(10)
	p, v := new(big.Int), new(big.Int)
	mask := new(big.Int).SetUint64(^uint64(0))
	for q := minPow10; q <= maxPow10; q++ {
		if q >= 0 {
			p.Exp(ten, big.NewInt(int64(q)), nil)
			if n := p.BitLen(); n > 128 {
				v.Rsh(p, uint(n-128))
			} else {
				v.Lsh(p, uint(128-n))
			}
		} else {
			p.Exp(ten, big.NewInt(int64(-q)), nil)
			v.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			v.Quo(v, p)
		}
		lo := new(big.Int).And(v, mask).Uint64()
		tab[q-minPow10] = u128{hi: new(big.Int).Rsh(v, 64).Uint64(), lo: lo}
	}
	pow10Tab = tab
}
