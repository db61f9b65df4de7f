package pairing

import (
	"fmt"
	"math/big"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
)

// GT is an element of the target group, the order-r subgroup of F_p²*.
type GT struct {
	V ff.Elt2
}

// GTOne returns the identity of G_T.
func (pr *Params) GTOne() GT { return GT{V: pr.X.One()} }

// GTMul returns a·b in G_T.
func (pr *Params) GTMul(a, b GT) GT { return GT{V: pr.X.Mul(a.V, b.V)} }

// GTExp returns a^k in G_T.
func (pr *Params) GTExp(a GT, k *big.Int) GT { return GT{V: pr.X.Exp(a.V, k)} }

// Equal reports G_T equality.
func (a GT) Equal(b GT) bool { return a.V.Equal(b.V) }

// IsOne reports whether a is the identity.
func (pr *Params) IsOne(a GT) bool { return a.V.Equal(pr.X.One()) }

// GTBytes encodes a G_T element.
func (pr *Params) GTBytes(a GT) []byte { return pr.X.Bytes(a.V) }

// GTFromBytes decodes a G_T element.
func (pr *Params) GTFromBytes(b []byte) (GT, error) {
	v, err := pr.X.EltFromBytes(b)
	if err != nil {
		return GT{}, fmt.Errorf("pairing: %w", err)
	}
	return GT{V: v}, nil
}

// Pair computes the modified Tate pairing ê(P, Q) for P, Q in the
// order-r subgroup of E(F_p). ê(∞, Q) = ê(P, ∞) = 1.
func (pr *Params) Pair(p, q ec.Point) GT {
	if p.Inf || q.Inf {
		return pr.GTOne()
	}
	phiQ := pr.C2.Distort(q)
	f := pr.miller(p, phiQ)
	return GT{V: pr.X.Exp(f, pr.finalExp)}
}

// PairBase returns ê(G, G) for the canonical generator.
func (pr *Params) PairBase() GT { return pr.Pair(pr.G, pr.G) }

// PairPair is one (P, Q) argument of a pairing product.
type PairPair struct {
	P, Q ec.Point
}

// PairProduct computes ∏ ê(P_i, Q_i) with a single final
// exponentiation: the Miller values are multiplied in F_p² first and
// exponentiated once. Verifications of the form
// ê(a,b)·ê(c,d) =? ê(g,g) (Construction 1) run almost twice as fast
// this way, since the final exponentiation dominates each pairing.
func (pr *Params) PairProduct(pairs ...PairPair) GT {
	ps := make([]ec.Point, 0, len(pairs))
	ats := make([]ec.Point2, 0, len(pairs))
	for _, pp := range pairs {
		if pp.P.Inf || pp.Q.Inf {
			continue // contributes the identity
		}
		ps = append(ps, pp.P)
		ats = append(ats, pr.C2.Distort(pp.Q))
	}
	if len(ps) == 0 {
		return pr.GTOne()
	}
	// The lockstep evaluator shares each step's slope inversion (and the
	// final num/den division) across all pairs of the product.
	acc := pr.X.One()
	for _, m := range pr.millerMany(ps, ats) {
		acc = pr.X.Mul(acc, m)
	}
	return GT{V: pr.X.Exp(acc, pr.finalExp)}
}

// miller evaluates Miller's algorithm: f_{r,P} at the point at ∈ E(F_p²),
// keeping numerator and denominator separate and dividing once at the
// end. Line coefficients live in F_p (all intermediate points are
// F_p-rational); evaluations live in F_p².
//
// For at = φ(Q) with Q in the order-r subgroup, no line or vertical can
// vanish at the evaluation point: x_φ(Q) = ζ·x_Q has a non-zero
// imaginary component (x_Q = 0 only for the 3-torsion points (0, ±1),
// which cannot lie in a subgroup of prime order r > 3).
func (pr *Params) miller(p ec.Point, at ec.Point2) ff.Elt2 {
	x := pr.X
	num := x.One()
	den := x.One()
	v := p
	r := pr.R
	for i := r.BitLen() - 2; i >= 0; i-- {
		// Doubling step: f ← f²·(l_{V,V}/v_{2V}).
		num = x.Square(num)
		den = x.Square(den)
		l, vert, next := pr.millerStep(v, v, at)
		num = x.Mul(num, l)
		den = x.Mul(den, vert)
		v = next
		if r.Bit(i) == 1 {
			// Addition step: f ← f·(l_{V,P}/v_{V+P}).
			l, vert, next := pr.millerStep(v, p, at)
			num = x.Mul(num, l)
			den = x.Mul(den, vert)
			v = next
		}
	}
	return x.Mul(num, x.Inv(den))
}

// millerStep returns the line through a and b (tangent when a == b)
// evaluated at `at`, the vertical through a+b evaluated at `at`, and
// a+b itself. Computing all three together shares the one slope
// inversion between the line and the point update, halving the
// inversions per Miller iteration versus evaluating the line and
// advancing the point independently. Degenerate cases (vertical chord,
// point at infinity) follow the standard divisor conventions: an absent
// factor contributes 1.
//
// The step is split into three pieces — millerStepDen,
// millerStepDegenerate, millerStepFinish — so the lockstep batch
// evaluator (millerMany, batch.go) can collect the slope denominators
// of a whole batch and invert them together with Montgomery's trick.
func (pr *Params) millerStep(a, b ec.Point, at ec.Point2) (ff.Elt2, ff.Elt2, ec.Point) {
	den, ok := pr.millerStepDen(a, b)
	if !ok {
		return pr.millerStepDegenerate(a, b, at)
	}
	return pr.millerStepFinish(a, b, at, pr.F.Inv(den))
}

// millerStepDen returns the slope denominator the step a+b must invert
// — 2y_a for a tangent, x_b − x_a for a chord — or ok=false when the
// step is degenerate (a point at infinity or a vertical chord) and
// needs no inversion at all.
func (pr *Params) millerStepDen(a, b ec.Point) (ff.Elt, bool) {
	if a.Inf || b.Inf {
		return ff.Elt{}, false
	}
	if a.X.Equal(b.X) {
		if a.Y.Equal(b.Y) && !a.Y.IsZero() {
			return pr.F.Add(a.Y, a.Y), true
		}
		return ff.Elt{}, false // vertical chord: a + b = ∞
	}
	return pr.F.Sub(b.X, a.X), true
}

// millerStepDegenerate finishes a step millerStepDen declared
// inversion-free.
func (pr *Params) millerStepDegenerate(a, b ec.Point, at ec.Point2) (ff.Elt2, ff.Elt2, ec.Point) {
	one := pr.X.One()
	if a.Inf && b.Inf {
		return one, one, ec.Point{Inf: true}
	}
	if a.Inf {
		// Line through ∞ and b is the vertical at b; a+b = b.
		vb := pr.verticalAt(b.X, at)
		return vb, vb, b
	}
	if b.Inf {
		va := pr.verticalAt(a.X, at)
		return va, va, a
	}
	// Vertical chord: a + b = ∞, so the "vertical at a+b" contributes 1.
	return pr.verticalAt(a.X, at), one, ec.Point{Inf: true}
}

// millerStepFinish completes a non-degenerate step given the inverted
// slope denominator.
func (pr *Params) millerStepFinish(a, b ec.Point, at ec.Point2, invDen ff.Elt) (ff.Elt2, ff.Elt2, ec.Point) {
	f := pr.F
	x := pr.X

	var lambda ff.Elt
	if a.X.Equal(b.X) {
		// Tangent: λ = 3x²/2y (curve coefficient a = 0).
		num := f.Mul(f.FromInt64(3), f.Square(a.X))
		lambda = f.Mul(num, invDen)
	} else {
		lambda = f.Mul(f.Sub(b.Y, a.Y), invDen)
	}

	// l(at) = y_at − y_a − λ(x_at − x_a)
	dy := x.Sub(at.Y, x.FromBase(a.Y))
	dx := x.Sub(at.X, x.FromBase(a.X))
	l := x.Sub(dy, x.MulBase(dx, lambda))

	// The chord-and-tangent sum, reusing the slope already computed.
	sumX := f.Sub(f.Sub(f.Square(lambda), a.X), b.X)
	sumY := f.Sub(f.Mul(lambda, f.Sub(a.X, sumX)), a.Y)
	return l, pr.verticalAt(sumX, at), ec.Point{X: sumX, Y: sumY}
}

// verticalAt evaluates the vertical line x − x0 at `at`.
func (pr *Params) verticalAt(x0 ff.Elt, at ec.Point2) ff.Elt2 {
	return pr.X.Sub(at.X, pr.X.FromBase(x0))
}
