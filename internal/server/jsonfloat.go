package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// This file is the float kernel of the release-body encoder: it writes a
// float64 exactly as encoding/json does (shortest round-trip digits, the
// 'e' form outside [1e-6, 1e21) with a one-digit negative exponent for
// e-07..e-09). The digit search is the Go standard library's Ryu
// shortest path (strconv/ftoaryu.go, BSD-style licence) kept step for
// step — bounds, the 128-bit power-of-ten multiply, the exactness flags
// and the trimming loop — so the digits match strconv's by construction.
// Only the output differs: the digits come back as one uint64 and are
// written with 2-digit table lookups, 8 digits per 64-bit division,
// instead of byte by byte through strconv's decimalSlice and fmtF.

// maxFloatLen bounds the bytes one float takes: a sign, "0.00000" and
// 17 significant digits in the widest 'f' form. Integers up to 1e21 and
// every 'e' form are shorter.
const maxFloatLen = 25

// unsupportedFloatError reports a NaN or infinity, which JSON cannot
// carry. Its text is encoding/json's for the same value.
type unsupportedFloatError float64

func (e unsupportedFloatError) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(e), 'g', -1, 64)
}

// appendFloat appends f as encoding/json encodes a float64.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	dst = slices.Grow(dst, maxFloatLen)
	n, err := putFloat(dst[len(dst):len(dst)+maxFloatLen], f)
	return dst[:len(dst)+n], err
}

// appendFloats appends vs as encoding/json encodes a []float64: a JSON
// array, or null for a nil slice.
func appendFloats(dst []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = slices.Grow(dst, len(vs)*(maxFloatLen+1)+2)
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		n, err := putFloat(dst[len(dst):len(dst)+maxFloatLen], v)
		if err != nil {
			return dst, err
		}
		dst = dst[:len(dst)+n]
	}
	return append(dst, ']'), nil
}

// putFloat writes f into b, which holds at least maxFloatLen bytes, and
// returns the number of bytes written.
func putFloat(b []byte, f float64) (int, error) {
	u := math.Float64bits(f)
	exp := int(u>>52) & 0x7ff
	mant := u & (1<<52 - 1)
	if exp == 0x7ff {
		return 0, unsupportedFloatError(f)
	}
	i := 0
	if u>>63 != 0 {
		b[0] = '-'
		i = 1
	}
	if exp == 0 {
		if mant == 0 {
			b[i] = '0'
			return i + 1, nil
		}
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	d, e10 := shortestDecimal(mant, exp-1023-52)
	nd := decimalLen(d)
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		return i + putExp(b[i:], d, nd, nd+e10-1), nil
	}
	return i + putFixed(b[i:], d, nd, nd+e10), nil
}

// putFixed writes the nd digits of d in strconv's 'f' form with the
// decimal point dp digits from the left, and returns the length.
func putFixed(b []byte, d uint64, nd, dp int) int {
	switch {
	case dp <= 0: // 0.000ddd
		b[0], b[1] = '0', '.'
		z := 2 - dp
		for j := 2; j < z; j++ {
			b[j] = '0'
		}
		putDigits(b[z:z+nd], d)
		return z + nd
	case dp >= nd: // ddd000
		putDigits(b[:nd], d)
		for j := nd; j < dp; j++ {
			b[j] = '0'
		}
		return dp
	default: // dd.ddd: write the digits one to the right, then pull the
		// integer part back over the gap.
		putDigits(b[1:nd+1], d)
		copy(b[:dp], b[1:dp+1])
		b[dp] = '.'
		return nd + 1
	}
}

// putExp writes d in the 'e' form with decimal exponent x, and returns
// the length. encoding/json drops the leading zero strconv pads a
// one-digit exponent with, and x is never in (-7, 21) here, so the
// exponent is written unpadded.
func putExp(b []byte, d uint64, nd, x int) int {
	putDigits(b[1:nd+1], d)
	b[0] = b[1]
	n := 1
	if nd > 1 {
		b[1] = '.'
		n = nd + 1
	}
	b[n] = 'e'
	if x < 0 {
		b[n+1] = '-'
		x = -x
	} else {
		b[n+1] = '+'
	}
	n += 2
	switch {
	case x < 10:
		b[n] = byte('0' + x)
		return n + 1
	case x < 100:
		b[n], b[n+1] = digitPairs[2*x], digitPairs[2*x+1]
		return n + 2
	default:
		r := x % 100
		b[n], b[n+1], b[n+2] = byte('0'+x/100), digitPairs[2*r], digitPairs[2*r+1]
		return n + 3
	}
}

// digitPairs holds "00".."99" back to back.
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

// putDigits writes the decimal digits of d right-aligned into b, whose
// length is decimalLen(d): eight digits per 64-bit division, stored as
// one word, then two per table lookup.
func putDigits(b []byte, d uint64) {
	i := len(b)
	for d >= 1e8 {
		q := d / 1e8
		i -= 8
		binary.LittleEndian.PutUint64(b[i:], digits8(uint32(d-q*1e8)))
		d = q
	}
	v := uint32(d)
	for v >= 100 {
		q := v / 100
		j := 2 * (v - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[j], digitPairs[j+1]
		v = q
	}
	if v >= 10 {
		b[i-2], b[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[i-1] = byte('0' + v)
	}
}

// digits8 returns the eight ASCII digits of v < 1e8, zero-padded, as a
// little-endian word (most significant digit in the lowest byte). The
// lanes are split in parallel: 4+4 digits in two 32-bit lanes, then 2+2
// in 16-bit lanes, then 1+1 in bytes, each step a multiply-shift
// division that is exact over its lane's range.
func digits8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	hi := (x * 10486 >> 20) & 0x0000007f_0000007f // lane/100, lanes < 1e4
	x = hi | (x-100*hi)<<16
	hi = (x * 103 >> 10) & 0x000f000f_000f000f // lane/10, lanes < 100
	x = hi | (x-10*hi)<<8
	return x | 0x30303030_30303030
}

// pow10u64 holds 10^0 .. 10^19.
var pow10u64 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of d (1 for 0).
func decimalLen(d uint64) int {
	// 1233/4096 ≈ log10(2): t is the digit count of 2^len, at most one
	// too low.
	t := bits.Len64(d) * 1233 >> 12
	if d >= pow10u64[t] {
		return t + 1
	}
	return max(t, 1)
}

// shortestDecimal returns the shortest decimal d·10^e10, with no
// trailing zeros in d, that reads back as mant·2^exp — the digits
// strconv.AppendFloat(f, 'e' or 'f', -1, 64) prints. It follows
// strconv's ryuFtoaShortest line for line.
func shortestDecimal(mant uint64, exp int) (uint64, int) {
	// An exact integer with fewer bits than the mantissa: the previous
	// and next integer are not admissible representations.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		return trimZeros(ryuDigits(mant, mant, mant, true, false))
	}
	ml, mc, mu, e2 := computeBounds(mant, exp)
	if e2 == 0 {
		return trimZeros(ryuDigits(ml, mc, mu, true, false))
	}
	// Find 10^q larger than 2^-e2, and multiply all three bounds by it.
	q := mulByLog2Log10(-e2) + 1
	pow := pow10Table[q-pow10MinExp10]
	if q < 0 {
		// Inverse powers of ten must be rounded up.
		pow[0]++
	}
	e2 += mulByLog10Log2(q) - 127 + 119
	dl, dl0 := mulPow10(ml, pow)
	dc, dc0 := mulPow10(mc, pow)
	du, du0 := mulPow10(mu, pow)
	// Large positive powers of ten are not exact.
	if q > 55 {
		dl0, dc0, du0 = false, false, false
	}
	// Division by a power of ten may be exact (5^25 is a 59-bit number,
	// so division by 5^25 never is).
	if q < 0 && q >= -24 {
		if divisibleByPower5(ml, -q) {
			dl0 = true
		}
		if divisibleByPower5(mc, -q) {
			dc0 = true
		}
		if divisibleByPower5(mu, -q) {
			du0 = true
		}
	}
	// Express (dl, dc, du)·2^e2 as integers; the removed bits are the
	// rounding hints.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// du is admissible when truncated, or when exact and the binary
	// mantissa is even; otherwise step below it.
	uok := !du0 || fracu > 0
	if du0 && fracu == 0 {
		uok = mant&1 == 0
	}
	if !uok {
		du--
	}
	// Is dc the correctly rounded mantissa, or dc+1?
	var cup bool
	if dc0 {
		// An exact half rounds to even.
		cup = fracc > 1<<(extra-1) ||
			(fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		// A truncation of the ideal value.
		cup = fracc>>(extra-1) == 1
	}
	// dl is admissible only when exact and the binary mantissa is even.
	lok := dl0 && fracl == 0 && (mant&1 == 0)
	if !lok {
		dl++
	}
	// Whether the trimmed digits of dc are zero.
	c0 := dc0 && fracc == 0
	d, k := trimZeros(ryuDigits(dl, dc, du, c0, cup))
	return d, k - q
}

// mulByLog2Log10 returns floor(x·log10(2)) for -1600 <= x <= 1600.
func mulByLog2Log10(x int) int { return (x * 78913) >> 18 }

// mulByLog10Log2 returns floor(x·log2(10)) for -500 <= x <= 500.
func mulByLog10Log2(x int) int { return (x * 108853) >> 15 }

// computeBounds returns the interval (lower, central, upper)·2^e2, with
// 55-bit mantissas, that rounds to mant·2^exp.
func computeBounds(mant uint64, exp int) (lower, central, upper uint64, e2 int) {
	if mant != 1<<52 || exp == -1023+1-52 {
		// Regular case, or a subnormal.
		return 2*mant - 1, 2 * mant, 2*mant + 1, exp - 1
	}
	// At the border of an exponent the lower gap is half as wide.
	return 4*mant - 1, 4 * mant, 4*mant + 2, exp - 2
}

// ryuDigits picks the shortest decimal in [lower, upper], rounding
// central, and returns it as d·10^k. It is strconv's ryuDigits with the
// digits kept as an integer instead of written out one by one.
func ryuDigits(lower, central, upper uint64, c0, cup bool) (uint64, int) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	switch {
	case uhi == 0: // only low digits (subnormals)
		return ryuDigits32(llo, clo, ulo, c0, cup)
	case lhi < uhi: // truncate 9 digits at once
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = clo > 5e8 || (clo == 5e8 && cup)
		d, k := ryuDigits32(lhi, chi, uhi, c0, cup)
		return d, k + 9
	}
	// The high 9 digits are fixed; choose among the low ones.
	if ulo == 0 {
		return uint64(chi), 9
	}
	d, k := ryuDigits32(llo, clo, ulo, c0, cup)
	return uint64(chi)*pow10u64[9-k] + d, k
}

// ryuDigits32 is ryuDigits for values below 1e9: it trims digits while
// the interval still holds an integer, rounds central, and returns the
// result as d·10^trimmed.
func ryuDigits32(lower, central, upper uint32, c0, cup bool) (uint64, int) {
	if upper == 0 {
		return 0, 0
	}
	trimmed := 0
	// The last trimmed digit decides the round-up; c0 tracks whether the
	// digits after it were all zero.
	var cNextDigit uint32
	for upper > 0 {
		// l = ceil(lower/10^k), c = central/10^k, u = floor(upper/10^k);
		// stop before c leaves (l, u).
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			break
		}
		// central just below an integer ending in many zeros can fall
		// under the lower boundary; step it up.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		c0 = c0 && cNextDigit == 0
		cNextDigit = cdigit
		lower, central, upper = l, c, u
	}
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	return uint64(central), trimmed
}

// trimZeros strips the trailing zeros of d into the exponent k.
func trimZeros(d uint64, k int) (uint64, int) {
	if d == 0 {
		return 0, 0
	}
	for d%10 == 0 {
		d /= 10
		k++
	}
	return d, k
}

// mulPow10 multiplies the 55-bit m by the 128-bit mantissa pow and
// keeps the top 64 bits of the 183-bit product (a shift right by 119).
// exact reports whether every dropped bit was zero. It is strconv's
// mult128bitPow10 with the table lookup and exponent update hoisted out,
// since the three bounds share them; for q == 0 the table entry is
// exactly 2^127 and the product reduces to strconv's m<<8 shortcut.
func mulPow10(m uint64, pow [2]uint64) (res uint64, exact bool) {
	l1, l0 := bits.Mul64(m, pow[0])
	h1, h0 := bits.Mul64(m, pow[1])
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, mid<<9 == 0 && l0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

// The power-of-ten table spans strconv's range, 10^-348 .. 10^347.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = 347
)

// pow10Table[q-pow10MinExp10] is 10^q as a 128-bit mantissa {lo, hi}
// with bit 127 set, rounded down: strconv's detailedPowersOfTen, computed
// once here rather than listed.
var pow10Table = buildPow10Table()

func buildPow10Table() *[pow10MaxExp10 - pow10MinExp10 + 1][2]uint64 {
	t := new([pow10MaxExp10 - pow10MinExp10 + 1][2]uint64)
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|q|
	m := new(big.Int)
	words := func(m *big.Int) [2]uint64 {
		var b [16]byte
		m.FillBytes(b[:])
		return [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	for q := 0; q <= pow10MaxExp10; q++ {
		if n := p.BitLen(); n > 128 {
			m.Rsh(p, uint(n-128))
		} else {
			m.Lsh(p, uint(128-n))
		}
		t[q-pow10MinExp10] = words(m)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for q := -1; q >= pow10MinExp10; q-- {
		// 2^(127+len) / 10^-q lies strictly between 2^127 and 2^128.
		m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		m.Quo(m, p)
		t[q-pow10MinExp10] = words(m)
		p.Mul(p, ten)
	}
	return t
}
