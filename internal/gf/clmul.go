package gf

// The carry-less-multiply tier: GF(2)[x] products computed with plain
// integer multiplies. An integer multiply is a carry-less multiply plus
// unwanted carries; splitting each operand into four interleaved "hole"
// classes (every 4th bit) leaves enough zero gap between live bits that
// column sums stay below the gap capacity — the carries never reach the
// next live bit, and masking the product back to its class recovers the
// exact XOR convolution. This is the software analogue of the paper's
// gf32bMult wide-word route: one instruction-level multiply produces 32
// bit-positions of GF(2) product at once, against one table lookup per
// 8-bit symbol on the M0+ baseline.
//
// Reductions use GF(2) Barrett division: with mu = x^32 / p
// precomputed, v mod p costs two carry-less multiplies and no data-
// dependent loop.
//
// The tier serves one op, the BitSyndromePlan fold: a binary received
// word is packed 32 coefficients per machine word and reduced modulo
// the minimal polynomial of each syndrome point, so one clmul step
// consumes 32 codeword bits. It is the only computed route that beats
// the table on any op, and only on words of foldMinBits bits or more.

import "sync"

const holeMask4 = 0x1111111111111111 // every 4th bit, class 0

// clmulGroups splits b into its four hole classes for clmulG.
func clmulGroups(b uint64) [4]uint64 {
	return [4]uint64{
		b & holeMask4,
		b & (holeMask4 << 1),
		b & (holeMask4 << 2),
		b & (holeMask4 << 3),
	}
}

// clmulG is the carry-less product of a and a pre-grouped operand bg.
// Safe whenever each hole class of a has at most 8 live bits (any
// a <= 32 bits qualifies) and the true product fits in 64 bits: at most
// 8 partial products collide per column, and 8 < 2^4 keeps every carry
// inside the 3-bit hole gap.
func clmulG(a uint64, bg [4]uint64) uint64 {
	a0 := a & holeMask4
	a1 := a & (holeMask4 << 1)
	a2 := a & (holeMask4 << 2)
	a3 := a & (holeMask4 << 3)
	r0 := a0*bg[0] ^ a1*bg[3] ^ a2*bg[2] ^ a3*bg[1]
	r1 := a0*bg[1] ^ a1*bg[0] ^ a2*bg[3] ^ a3*bg[2]
	r2 := a0*bg[2] ^ a1*bg[1] ^ a2*bg[0] ^ a3*bg[3]
	r3 := a0*bg[3] ^ a1*bg[2] ^ a2*bg[1] ^ a3*bg[0]
	return r0&holeMask4 | r1&(holeMask4<<1) | r2&(holeMask4<<2) | r3&(holeMask4<<3)
}

// polyDivGF2 returns the quotient of v / p over GF(2) (long division,
// remainder discarded). Companion of ReducePoly, used to precompute
// Barrett constants mu = x^32 / p.
func polyDivGF2(v, p uint64) uint64 {
	dp := polyDegree(p)
	var q uint64
	for d := polyDegree(v); d >= dp; d = polyDegree(v) {
		q |= 1 << uint(d-dp)
		v ^= p << uint(d-dp)
	}
	return q
}

// barrettConsts precomputes the Barrett pair for divisor p (degree d,
// 1 <= d <= 16): mu = x^32 / p and the grouped forms of both.
type barrettConsts struct {
	d   uint
	pg  [4]uint64
	mug [4]uint64
}

func newBarrettConsts(p uint64) barrettConsts {
	return barrettConsts{
		d:   uint(polyDegree(p)),
		pg:  clmulGroups(p),
		mug: clmulGroups(polyDivGF2(1<<32, p)),
	}
}

// reduce maps a polynomial v of degree <= 31 to v mod p, degree < d:
// q = floor(v/x^d * mu / x^(32-d)) is the exact GF(2) quotient, so
// v ^ q*p cancels everything above degree d-1.
func (bc *barrettConsts) reduce(v uint64) uint64 {
	q := clmulG(v>>bc.d, bc.mug) >> (32 - bc.d)
	return (v ^ clmulG(q, bc.pg)) & (1<<bc.d - 1)
}

// rootPlan is the per-evaluation-point state of a BitSyndromePlan. The
// point's syndrome S = r(x) is computed structurally: reduce the packed
// binary word r modulo the point's minimal polynomial m_x over GF(2)
// (degree d <= m), then evaluate the d-bit remainder at x — correct
// because m_x(x) = 0 makes reduction mod m_x invisible at x. The
// reduction consumes the word 32 coefficients per step with a deferred-
// reduction fold and one final Barrett division.
type rootPlan struct {
	bc   barrettConsts
	t32g [4]uint64 // x^32 mod m_x, grouped — the per-chunk fold factor
	pow  [17]Elem  // pow[i] = x^i for the remainder evaluation
}

func newRootPlan(f *Field, x Elem) rootPlan {
	p := uint64(MinimalPolynomial(f, x))
	rp := rootPlan{
		bc:   newBarrettConsts(p),
		t32g: clmulGroups(ReducePoly(1<<32, p)),
	}
	for i := 0; i <= polyDegree(p); i++ {
		rp.pow[i] = f.Pow(x, i)
	}
	return rp
}

// fold reduces the packed word (32-bit chunks, chunks[0] most
// significant and possibly partial) mod m_x, keeping acc as a 32-bit
// unreduced residue representative between chunks:
//
//	acc*x^32 + chunk  ==  hi(acc*t32)*t32 ^ lo(acc*t32) ^ chunk  (mod m_x)
//
// where t32 = x^32 mod m_x, so each step costs two clmuls with the
// final Barrett division deferred to the very end.
func (rp *rootPlan) fold(chunks []uint32) Elem {
	var acc uint64
	for _, c := range chunks {
		t := clmulG(acc, rp.t32g)
		acc = clmulG(t>>32, rp.t32g) ^ t&0xFFFFFFFF ^ uint64(c)
	}
	acc = rp.bc.reduce(acc)
	var s Elem
	for i := 0; acc != 0; i++ {
		if acc&1 != 0 {
			s ^= rp.pow[i]
		}
		acc >>= 1
	}
	return s
}

// packBitsInto packs a binary word (one bit per byte, transmission
// order: bits[0] is the coefficient of x^(n-1)) into 32-bit chunks,
// most significant chunk first. The first chunk is partial when n is
// not a multiple of 32, keeping every later chunk's inner loop exact.
func packBitsInto(buf []uint32, bitsIn []byte) []uint32 {
	n := len(bitsIn)
	nc := (n + 31) / 32
	chunks := buf[:nc]
	lead := n % 32
	if lead == 0 {
		lead = 32
	}
	var w uint32
	idx := 0
	for i := 0; i < lead; i++ {
		w = w<<1 | uint32(bitsIn[idx])
		idx++
	}
	chunks[0] = w
	for c := 1; c < nc; c++ {
		var w uint32
		for i := 0; i < 32; i += 4 {
			w = w<<4 | uint32(bitsIn[idx])<<3 | uint32(bitsIn[idx+1])<<2 |
				uint32(bitsIn[idx+2])<<1 | uint32(bitsIn[idx+3])
			idx += 4
		}
		chunks[c] = w
	}
	return chunks
}

// BitSyndromePlan evaluates a binary received word at a fixed set of
// syndrome points. Words of foldMinBits bits or more take the
// carry-less minimal-polynomial fold; shorter words take the field's
// plain SyndromeBitSlice (table or scalar). A pinned or forced tier
// overrides the length rule: clmul always folds, any other tier never
// does. Build one per codec (package bch keeps one per root set) and
// reuse it across frames; a plan is safe for concurrent use.
type BitSyndromePlan struct {
	k     *Kernels
	xs    []Elem
	plans []rootPlan
	bufs  sync.Pool // *[]uint32 chunk scratch
}

// NewBitSyndromePlan builds the per-point fold plans (minimal
// polynomials, Barrett constants, power tables) for the given
// evaluation points.
func (k *Kernels) NewBitSyndromePlan(xs []Elem) *BitSyndromePlan {
	bp := &BitSyndromePlan{
		k:     k,
		xs:    append([]Elem(nil), xs...),
		plans: make([]rootPlan, len(xs)),
	}
	for i, x := range xs {
		bp.plans[i] = newRootPlan(k.f, x)
	}
	bp.bufs.New = func() any { s := make([]uint32, 64); return &s }
	return bp
}

// Points returns the plan's evaluation points.
func (bp *BitSyndromePlan) Points() []Elem { return append([]Elem(nil), bp.xs...) }

// Run sets dst[j] = r(xs[j]) for the binary word r stored one bit per
// byte in transmission order. dst must have the plan's point count.
func (bp *BitSyndromePlan) Run(dst []Elem, bits []byte) {
	if len(dst) != len(bp.xs) {
		panic("gf: BitSyndromePlan.Run length mismatch")
	}
	if !bp.k.folds(len(bits)) {
		bp.k.SyndromeBitSlice(dst, bits, bp.xs)
		return
	}
	bp.k.hit(TierCLMul)
	bp.fold(dst, bits)
}

// folds reports whether BitSyndromePlan.Run takes the clmul fold for an
// n-bit word on this view.
func (k *Kernels) folds(n int) bool {
	if t := k.override(); t != TierAuto {
		return t == TierCLMul
	}
	return n >= foldMinBits
}

// fold runs the clmul route unconditionally.
func (bp *BitSyndromePlan) fold(dst []Elem, bits []byte) {
	nc := (len(bits) + 31) / 32
	bufp := bp.bufs.Get().(*[]uint32)
	if cap(*bufp) < nc {
		*bufp = make([]uint32, nc)
	}
	chunks := packBitsInto((*bufp)[:cap(*bufp)], bits)
	for j := range bp.plans {
		dst[j] = bp.plans[j].fold(chunks)
	}
	bp.bufs.Put(bufp)
}
