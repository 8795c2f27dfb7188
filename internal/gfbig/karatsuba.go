package gfbig

// Karatsuba carry-free multiplication (Section 3.3.4 of the paper): the
// product of two w-word polynomials is formed from three w/2-word products
// instead of four, at the cost of extra additions (free XORs in GF(2)).
// The paper applies a two-level Karatsuba to GF(2^233) (8 words -> 4 -> 2)
// and reports a 1.4x speedup over the direct product on their processor.

// MulFullKaratsuba returns the unreduced product of a and b using
// recursive Karatsuba with the given number of levels (0 = schoolbook).
// The result is identical to MulFull. The temporaries live in one
// arena (karatsubaArena) on the stack, so the result is the only
// allocation, as for MulFull.
func (f *Field) MulFullKaratsuba(a, b Elem, levels int) []uint32 {
	out := make([]uint32, 2*f.words)
	var stack [128]uint32 // the two-level arena of every NIST field (GF(2^571): 110 words)
	arena := stack[:]
	if n := karatsubaArenaSize(f.words, levels); n > len(stack) {
		arena = make([]uint32, n)
	}
	karatsubaArena(out, a, b, levels, arena)
	return out
}

// MulKaratsuba returns the reduced product using the paper's two-level
// Karatsuba decomposition.
func (f *Field) MulKaratsuba(a, b Elem) Elem {
	return f.Reduce(f.MulFullKaratsuba(a, b, 2))
}

func schoolbookInto(out []uint32, a, b []uint32) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			if bj == 0 {
				continue
			}
			p := Clmul32(ai, bj)
			out[i+j] ^= uint32(p)
			out[i+j+1] ^= uint32(p >> 32)
		}
	}
}

// Clmul32Count returns the number of 32-bit partial products Karatsuba at
// the given level uses for w words (w a power of two times the residue):
// schoolbook uses w^2, one level 3*(w/2)^2, two levels 9*(w/4)^2. This is
// the count the paper's cycle model charges for the gf32bMult instruction.
func Clmul32Count(words, levels int) int {
	if levels <= 0 || words < 2 {
		return words * words
	}
	h := words / 2
	hw := words - h
	return Clmul32Count(h, levels-1) + 2*Clmul32Count(hw, levels-1)
}
