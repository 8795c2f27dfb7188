package gf

// Bulk (slice-at-a-time) arithmetic: the software analogue of the paper's
// 4-way SIMD GF instructions. Where the GF processor wires 16 multiplier
// primitives into gfMult4/gfSquare4/gfInv4 so a whole vector of symbols
// moves through the datapath in one cycle, this layer replaces the
// symbol-at-a-time Field.Mul route (two table lookups plus a zero branch
// per product) with whole-slice kernels.
//
// Each operation has two implementations: the table tier (a flat
// product table, m <= 8) and the scalar reference (Field.Mul). Which one
// runs follows the static rule in tier.go. The scalar tier is the
// behavioral specification; selftest.go proves the table tier
// extensionally equal to it.
//
// All operations are allocation-free: callers own every buffer.

import "fmt"

// tableMaxM is the largest extension degree for which the flat product
// table is built (2^8 x 2^8 entries = 128 KiB of Elem).
const tableMaxM = 8

// Kernels provides bulk slice operations over one field. Obtain one with
// Field.Kernels (statically dispatched, see tier.go) or
// Field.ScalarKernels (a view pinned to the pure-scalar reference, used
// by tests and A/B benchmarks). A Kernels is immutable after
// construction and safe for concurrent use by any number of goroutines.
//
// Inputs must be valid field elements (Field.Valid); out-of-field values
// may panic on the table tier, exactly as the scalar table lookups in
// Field.Mul do.
type Kernels struct {
	f     *Field
	order int
	pin   TierID // TierAuto unless this view is pinned to one tier
	mul   []Elem // flat product table, row c at [c*order:(c+1)*order]; nil above m = 8 and on non-table pins
}

// Kernels returns the field's bulk-arithmetic kernels, built lazily on
// first use and cached on the Field.
func (f *Field) Kernels() *Kernels {
	f.kernOnce.Do(f.buildKernels)
	return f.kern
}

// ScalarKernels returns a view pinned to the pure-scalar reference
// tier: same API, every product routed through Field.Mul. Tests and
// benchmarks use it as the behavioral baseline the other tiers are
// checked against.
func (f *Field) ScalarKernels() *Kernels {
	f.kernOnce.Do(f.buildKernels)
	return f.scalarKern
}

func (f *Field) buildKernels() {
	var mul []Elem
	if f.m <= tableMaxM {
		mul = make([]Elem, f.order*f.order)
		for c := 0; c < f.order; c++ {
			row := mul[c*f.order : (c+1)*f.order]
			for x := range row {
				row[x] = f.Mul(Elem(c), Elem(x))
			}
		}
	}
	f.kern = &Kernels{f: f, order: f.order, pin: TierAuto, mul: mul}
	f.scalarKern = f.kern.forTier(TierScalar)
	publishSelections(f)
}

// forTier returns a view of k pinned to one tier. The differential
// selftest uses it to drive every tier over the same vectors.
func (k *Kernels) forTier(t TierID) *Kernels {
	v := *k
	v.pin = t
	if t != TierTable {
		v.mul = nil
	}
	return &v
}

// Field returns the field these kernels operate in.
func (k *Kernels) Field() *Field { return k.f }

// Table reports whether the flat product table is available to this
// view (false on pinned-scalar views and for fields with m > 8).
func (k *Kernels) Table() bool { return k.mul != nil }

// tiers lists every tier that can serve this field, in TierID order:
// scalar always, table for m <= 8, and the clmul plan fold.
func (k *Kernels) tiers() []TierID {
	if k.f.m <= tableMaxM {
		return []TierID{TierScalar, TierTable, TierCLMul}
	}
	return []TierID{TierScalar, TierCLMul}
}

// AvailableTiers lists the names of every tier that can serve this
// field, in TierID order.
func (k *Kernels) AvailableTiers() []string {
	var out []string
	for _, t := range k.tiers() {
		out = append(out, t.String())
	}
	return out
}

// override returns the pin or the process-wide force, TierAuto when
// the static rule decides.
func (k *Kernels) override() TierID {
	if k.pin != TierAuto {
		return k.pin
	}
	return ForcedKernelTier()
}

// plainTier resolves the tier serving a bulk op on this view: the table
// when the view has one and no override points elsewhere, the scalar
// reference otherwise.
func (k *Kernels) plainTier() TierID {
	if t := k.override(); k.mul != nil && (t == TierAuto || t == TierTable) {
		return TierTable
	}
	return TierScalar
}

// table charges one call to the tier that serves it and returns the
// product table when that is the table tier, nil for the scalar
// reference.
func (k *Kernels) table() []Elem {
	t := k.plainTier()
	k.hit(t)
	if t == TierTable {
		return k.mul
	}
	return nil
}

// row returns the table row of products c*x.
func (k *Kernels) row(mul []Elem, c Elem) []Elem {
	return mul[int(c)*k.order : int(c)*k.order+k.order]
}

// AddSlice sets dst[i] = a[i] + b[i] (XOR). dst may alias a or b. All
// three slices must have equal length.
func (k *Kernels) AddSlice(dst, a, b []Elem) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("gf: AddSlice length mismatch dst=%d a=%d b=%d", len(dst), len(a), len(b)))
	}
	k.hit(k.plainTier())
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = a[i] ^ b[i]
		dst[i+1] = a[i+1] ^ b[i+1]
		dst[i+2] = a[i+2] ^ b[i+2]
		dst[i+3] = a[i+3] ^ b[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// XorSlice folds src into dst: dst[i] ^= src[i]. src must not be longer
// than dst.
func (k *Kernels) XorSlice(dst, src []Elem) {
	if len(src) > len(dst) {
		panic(fmt.Sprintf("gf: XorSlice src length %d exceeds dst %d", len(src), len(dst)))
	}
	k.hit(k.plainTier())
	for i, v := range src {
		dst[i] ^= v
	}
}

// MulConstSlice sets dst[i] = c * src[i]. dst may alias src. Both slices
// must have equal length.
func (k *Kernels) MulConstSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulConstSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	switch c {
	case 0:
		k.hit(k.plainTier())
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		k.hit(k.plainTier())
		copy(dst, src)
		return
	}
	if mul := k.table(); mul != nil {
		r := k.row(mul, c)
		for i, s := range src {
			dst[i] = r[s]
		}
		return
	}
	for i, s := range src {
		dst[i] = k.f.Mul(c, s)
	}
}

// MulConstAddSlice folds c * src into dst: dst[i] ^= c * src[i] — the
// LFSR/encode primitive (one generator-row update per feedback symbol).
// dst must not alias src. Both slices must have equal length.
func (k *Kernels) MulConstAddSlice(dst, src []Elem, c Elem) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: MulConstAddSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	switch c {
	case 0:
		k.hit(k.plainTier())
		return
	case 1:
		k.hit(k.plainTier())
		for i, v := range src {
			dst[i] ^= v
		}
		return
	}
	if mul := k.table(); mul != nil {
		r := k.row(mul, c)
		for i, s := range src {
			dst[i] ^= r[s]
		}
		return
	}
	for i, s := range src {
		dst[i] ^= k.f.Mul(c, s)
	}
}

// DotSlice returns the inner product sum_i a[i]*b[i]. Both slices must
// have equal length.
func (k *Kernels) DotSlice(a, b []Elem) Elem {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gf: DotSlice length mismatch a=%d b=%d", len(a), len(b)))
	}
	var acc Elem
	if mul := k.table(); mul != nil {
		for i := range a {
			acc ^= mul[int(a[i])*k.order+int(b[i])]
		}
		return acc
	}
	for i := range a {
		acc ^= k.f.Mul(a[i], b[i])
	}
	return acc
}

// HornerSlice evaluates the polynomial whose coefficients are given in
// transmission order — word[0] is the highest-degree coefficient — at x:
//
//	acc <- acc*x + word[i]   for i = 0..len(word)-1
//
// This is the received-word layout of the RS/BCH codecs and the paper's
// syndrome recursion S_j <- S_j*alpha^j + R.
func (k *Kernels) HornerSlice(word []Elem, x Elem) Elem {
	if mul := k.table(); mul != nil {
		return hornerRow(word, k.row(mul, x))
	}
	return k.hornerScalar(word, x)
}

// EvalSlice evaluates the polynomial with coeffs[i] the coefficient of
// x^i (package gfpoly's storage order) at x by Horner's rule.
func (k *Kernels) EvalSlice(coeffs []Elem, x Elem) Elem {
	var acc Elem
	if mul := k.table(); mul != nil {
		r := k.row(mul, x)
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc = r[acc] ^ coeffs[i]
		}
		return acc
	}
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = k.f.Mul(acc, x) ^ coeffs[i]
	}
	return acc
}

// SyndromeSlice sets dst[j] = HornerSlice(word, xs[j]) for every
// evaluation point — the multi-point syndrome kernel. The table tier
// runs four independent accumulator chains per pass over the word, so
// the dependent lookups pipeline the way the paper's four SIMD lanes
// do. dst and xs must have equal length.
func (k *Kernels) SyndromeSlice(dst []Elem, word []Elem, xs []Elem) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("gf: SyndromeSlice length mismatch dst=%d xs=%d", len(dst), len(xs)))
	}
	mul := k.table()
	if mul == nil {
		for j, x := range xs {
			dst[j] = k.hornerScalar(word, x)
		}
		return
	}
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		r0, r1, r2, r3 := k.row(mul, xs[j]), k.row(mul, xs[j+1]), k.row(mul, xs[j+2]), k.row(mul, xs[j+3])
		var a0, a1, a2, a3 Elem
		for _, r := range word {
			a0 = r0[a0] ^ r
			a1 = r1[a1] ^ r
			a2 = r2[a2] ^ r
			a3 = r3[a3] ^ r
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < len(xs); j++ {
		dst[j] = hornerRow(word, k.row(mul, xs[j]))
	}
}

// HornerBitSlice is HornerSlice for a binary word stored one bit per
// byte (values 0/1), the BCH codeword layout.
func (k *Kernels) HornerBitSlice(bits []byte, x Elem) Elem {
	if mul := k.table(); mul != nil {
		return hornerBitRow(bits, k.row(mul, x))
	}
	return k.hornerBitScalar(bits, x)
}

// SyndromeBitSlice is SyndromeSlice for a binary word stored one bit per
// byte — the BCH syndrome kernel. For repeated syndrome sets over the
// same evaluation points prefer NewBitSyndromePlan, which folds long
// words on the clmul tier.
func (k *Kernels) SyndromeBitSlice(dst []Elem, bits []byte, xs []Elem) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("gf: SyndromeBitSlice length mismatch dst=%d xs=%d", len(dst), len(xs)))
	}
	mul := k.table()
	if mul == nil {
		for j, x := range xs {
			dst[j] = k.hornerBitScalar(bits, x)
		}
		return
	}
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		r0, r1, r2, r3 := k.row(mul, xs[j]), k.row(mul, xs[j+1]), k.row(mul, xs[j+2]), k.row(mul, xs[j+3])
		var a0, a1, a2, a3 Elem
		for _, b := range bits {
			e := Elem(b)
			a0 = r0[a0] ^ e
			a1 = r1[a1] ^ e
			a2 = r2[a2] ^ e
			a3 = r3[a3] ^ e
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < len(xs); j++ {
		dst[j] = hornerBitRow(bits, k.row(mul, xs[j]))
	}
}

func hornerRow(word []Elem, r []Elem) Elem {
	var acc Elem
	for _, s := range word {
		acc = r[acc] ^ s
	}
	return acc
}

func hornerBitRow(bits []byte, r []Elem) Elem {
	var acc Elem
	for _, b := range bits {
		acc = r[acc] ^ Elem(b)
	}
	return acc
}

func (k *Kernels) hornerScalar(word []Elem, x Elem) Elem {
	var acc Elem
	for _, r := range word {
		acc = k.f.Mul(acc, x) ^ r
	}
	return acc
}

func (k *Kernels) hornerBitScalar(bits []byte, x Elem) Elem {
	var acc Elem
	for _, b := range bits {
		acc = k.f.Mul(acc, x) ^ Elem(b)
	}
	return acc
}

// LFSR is a multiply-accumulate bank precomputed for one fixed
// coefficient vector — a generator polynomial in transmission order, the
// systematic encoder's feedback taps. On the table tiers every possible
// feedback row fb*coeffs is materialized once, so an LFSR step collapses
// to a single fused shift-XOR pass with no multiplies at all: the
// software image of the paper's hard-wired encoder datapath, where the
// constant multiplications are baked into the routing.
//
// An LFSR is immutable after construction and safe for concurrent use.
type LFSR struct {
	k      *Kernels
	nk     int
	coeffs []Elem
	tab    []Elem // flat order x nk feedback rows; nil without a product table
}

// NewLFSR builds the feedback bank for the given taps (len >= 1).
func (k *Kernels) NewLFSR(coeffs []Elem) *LFSR {
	if len(coeffs) == 0 {
		panic("gf: NewLFSR with no coefficients")
	}
	l := &LFSR{k: k, nk: len(coeffs), coeffs: append([]Elem(nil), coeffs...)}
	if k.mul != nil {
		l.tab = make([]Elem, k.order*l.nk)
		for fb := 0; fb < k.order; fb++ {
			k.MulConstSlice(l.tab[fb*l.nk:(fb+1)*l.nk], l.coeffs, Elem(fb))
		}
	}
	return l
}

// Run feeds msg through the register: for each symbol s,
//
//	feedback = s ^ par[0]; par shifts down one; par ^= feedback*coeffs
//
// updating par (length = len(coeffs)) in place. Seed par with zeros to
// compute the systematic RS parity of msg. When the view resolves to the
// scalar tier (a forced scalar or clmul tier) the definitional
// multiply-accumulate route is taken even if the bank exists, so
// forced-tier accounting stays honest.
func (l *LFSR) Run(par, msg []Elem) {
	nk := l.nk
	if len(par) != nk {
		panic(fmt.Sprintf("gf: LFSR.Run register length %d, want %d", len(par), nk))
	}
	if l.tab == nil || l.k.plainTier() == TierScalar {
		l.k.hit(TierScalar)
		for _, s := range msg {
			fb := s ^ par[0]
			copy(par, par[1:])
			par[nk-1] = 0
			if fb != 0 {
				l.k.MulConstAddSlice(par, l.coeffs, fb)
			}
		}
		return
	}
	l.k.hit(TierTable)
	for _, s := range msg {
		fb := s ^ par[0]
		if fb == 0 {
			copy(par, par[1:])
			par[nk-1] = 0
			continue
		}
		row := l.tab[int(fb)*nk : int(fb)*nk+nk]
		// Fused shift + XOR: each write at j consumes the old value at
		// j+1 before the next iteration overwrites it.
		j := 0
		for ; j+4 <= nk-1; j += 4 {
			par[j] = par[j+1] ^ row[j]
			par[j+1] = par[j+2] ^ row[j+1]
			par[j+2] = par[j+3] ^ row[j+2]
			par[j+3] = par[j+4] ^ row[j+3]
		}
		for ; j < nk-1; j++ {
			par[j] = par[j+1] ^ row[j]
		}
		par[nk-1] = row[nk-1]
	}
}

// GatherStride copies len(dst) elements src[off], src[off+stride], ...
// into dst — the deinterleave copy kernel (column i of a depth-`stride`
// interleaved frame is off=i).
func GatherStride(dst, src []Elem, off, stride int) {
	if stride == 1 {
		copy(dst, src[off:])
		return
	}
	si := off
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = src[si]
		dst[i+1] = src[si+stride]
		dst[i+2] = src[si+2*stride]
		dst[i+3] = src[si+3*stride]
		si += 4 * stride
	}
	for ; i < len(dst); i++ {
		dst[i] = src[si]
		si += stride
	}
}

// ScatterStride copies len(src) elements of src into dst[off],
// dst[off+stride], ... — the interleave copy kernel, inverse of
// GatherStride.
func ScatterStride(dst, src []Elem, off, stride int) {
	if stride == 1 {
		copy(dst[off:], src)
		return
	}
	di := off
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[di] = src[i]
		dst[di+stride] = src[i+1]
		dst[di+2*stride] = src[i+2]
		dst[di+3*stride] = src[i+3]
		di += 4 * stride
	}
	for ; i < len(src); i++ {
		dst[di] = src[i]
		di += stride
	}
}
