"""Closed forms and upper bounds for embedding-matrix condition numbers.

Every evaluator returns a BoundReport.  Reports carry the numeric value and
an exact symbolic form c*sqrt(d) with rational c, d whenever the quantity has
one.  A value past double range reads +inf (the general bound reaches 10^360
around n = 10^5 with six prime factors); its symbolic form stays exact, and
symbolic.log10() gives its size on demand.  A conductor outside a formula's
hypotheses gives applicable=False, a NaN value and a reason, so sweep loops
can dispatch without try/except pyramids.  Invalid arguments raise:
ValueError for a non-prime p, bad quadratic primes or a coefficient height
below 1.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .numtheory import as_conductor, check_quad_primes, height, is_prime


class Kind(enum.Enum):
    EXACT_CLOSED = "ExactClosed"        # closed-form equality, power basis
    EXACT_TWISTED = "ExactTwisted"      # closed-form equality, twisted basis
    EXACT_QUADRATIC = "ExactQuadratic"  # closed-form equality, one real quadratic block
    BOUND_GENERAL = "BoundGeneral"      # coefficient-height bound, any conductor
    BOUND_REFINED = "BoundRefined"      # radical-power bound, up to six prime factors
    BOUND_CYCLOMQ = "BoundCycloMQ"      # twisted cyclo-multiquadratic bound
    BOUND_QUADRATIC = "BoundQuadratic"  # 2 + sqrt(p) envelope for one block
    BOUND_HYBRID = "BoundHybrid"        # refined bound times quadratic envelopes
    HEIGHT_BOUND = "HeightBound"        # coefficient-height estimate, not a condition number


@dataclass(frozen=True)
class SymbolicValue:
    """Exact value coeff * sqrt(radicand) with rational parts."""

    coeff: Fraction
    radicand: Fraction = Fraction(1)

    def __float__(self) -> float:
        try:
            return float(self.coeff) * math.sqrt(float(self.radicand))
        except OverflowError:
            return math.inf

    def __mul__(self, other: "SymbolicValue") -> "SymbolicValue":
        return SymbolicValue(self.coeff * other.coeff, self.radicand * other.radicand)

    def log10(self) -> float:
        if self.coeff <= 0:
            raise ValueError("log10 of a nonpositive symbolic value")
        c, r = self.coeff, self.radicand
        return (math.log10(c.numerator) - math.log10(c.denominator)
                + 0.5 * (math.log10(r.numerator) - math.log10(r.denominator)))

    def equals(self, other: "SymbolicValue") -> bool:
        # c1*sqrt(d1) = c2*sqrt(d2)  <=>  same sign and c1^2 d1 = c2^2 d2
        if (self.coeff > 0) != (other.coeff > 0):
            return self.coeff == other.coeff == 0
        return self.coeff ** 2 * self.radicand == other.coeff ** 2 * other.radicand


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one evaluator on one input.

    value is +inf when the quantity exceeds double range and NaN when the
    report is inapplicable.  symbolic is present only for exact closed forms
    and for bounds that happen to be rational multiples of a square root; its
    log10() stays finite where value overflows.
    exponent is the growth-order metadata some bounds carry (the power of m
    in their asymptotic envelope).
    """

    kind: Kind
    value: float
    applicable: bool = True
    reason: str = ""
    symbolic: Optional[SymbolicValue] = None
    exponent: Optional[int] = None

    def __float__(self) -> float:
        return self.value


def _inapplicable(kind: Kind, reason: str) -> BoundReport:
    return BoundReport(kind=kind, value=math.nan, applicable=False, reason=reason)


def _from_symbolic(kind: Kind, sym: SymbolicValue, exponent=None) -> BoundReport:
    return BoundReport(kind=kind, value=float(sym), symbolic=sym, exponent=exponent)


def _phi_rad(c) -> int:
    """phi(rad n), from phi(n) = (n / rad n) * phi(rad n)."""
    return c.phi // (c.n // c.rad)


# ---------------------------------------------------------------------------
# Exact equalities.

def cond_exact_prime_power(n) -> BoundReport:
    """Power-basis condition number phi(n) * sqrt(2 - 2/p), exact for
    conductors with one odd prime (n = p^k or n = 2^k p^l, p the odd prime;
    pure two-powers take p = 2)."""
    c = as_conductor(n)
    if c.n < 2:
        return _inapplicable(Kind.EXACT_CLOSED, "need n >= 2")
    odd = [p for p, _ in c.factors if p != 2]
    if len(odd) > 1:
        return _inapplicable(
            Kind.EXACT_CLOSED,
            f"n = {c.n} has {len(odd)} odd prime factors; closed form needs at most one")
    p = odd[0] if odd else 2
    sym = SymbolicValue(Fraction(c.phi), Fraction(2 * (p - 1), p))
    return _from_symbolic(Kind.EXACT_CLOSED, sym)


def cond_exact_twisted(n) -> BoundReport:
    """Twisted-basis condition number phi(n) * sqrt(2^omega * prod (1 - 1/p)),
    exact for every conductor n >= 2."""
    c = as_conductor(n)
    if c.n < 2:
        return _inapplicable(Kind.EXACT_TWISTED, "need n >= 2")
    # prod (1 - 1/p) over the primes of n is phi(rad n) / rad n
    radicand = Fraction((1 << c.omega) * _phi_rad(c), c.rad)
    return _from_symbolic(Kind.EXACT_TWISTED, SymbolicValue(Fraction(c.phi), radicand))


def cond_quadratic(p) -> BoundReport:
    """Condition number of the 2x2 block for Q(sqrt p): sqrt(p) + 1/sqrt(p)
    when p = 2,3 (mod 4), and (p+5)/(2 sqrt p) when p = 1 (mod 4)."""
    p = operator.index(p)
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if p % 4 == 1:
        sym = SymbolicValue(Fraction(p + 5, 2 * p), Fraction(p))
    else:
        sym = SymbolicValue(Fraction(p + 1, p), Fraction(p))
    return _from_symbolic(Kind.EXACT_QUADRATIC, sym)


def cond_exact_cyclomq_twisted(n, primes) -> BoundReport:
    """Exact twisted-basis condition number of the compositum of the n-th
    cyclotomic field with Q(sqrt p) for each listed prime: the cyclotomic
    twisted value times the quadratic-block values (Kronecker multiplicativity)."""
    c = as_conductor(n)
    primes = check_quad_primes(c.n, primes)
    base = cond_exact_twisted(c)
    if not base.applicable:
        return _inapplicable(Kind.EXACT_TWISTED, base.reason)
    sym = base.symbolic
    for p in primes:
        sym = sym * cond_quadratic(p).symbolic
    return _from_symbolic(Kind.EXACT_TWISTED, sym)


# ---------------------------------------------------------------------------
# Upper bounds.

def cond_bound_general(n, coeff_height=None) -> BoundReport:
    """Coefficient-height bound 2 * rad(n) * n^(2^omega + omega + 2) * A,
    where A defaults to the true cyclotomic coefficient height of n.

    Valid for every n >= 2 but astronomically loose beyond omega = 3; the
    value field overflows to +inf past about 10^308 while the symbolic
    integer stays exact."""
    c = as_conductor(n)
    if c.n < 2:
        return _inapplicable(Kind.BOUND_GENERAL, "need n >= 2")
    a = height(c.n) if coeff_height is None else operator.index(coeff_height)
    if a < 1:
        raise ValueError(f"coefficient height must be >= 1, got {a}")
    e = (1 << c.omega) + c.omega + 2
    exact = 2 * c.rad * c.n ** e * a
    sym = SymbolicValue(Fraction(exact))
    rep = _from_symbolic(Kind.BOUND_GENERAL, sym, exponent=e)
    if math.isinf(rep.value):
        rep = replace(rep, reason="exceeds double range; symbolic stays exact")
    return rep


_REFINED_EXP = {1: 0, 2: 1, 3: 2, 4: 4, 5: 7, 6: 11}


def cond_bound_refined(n) -> BoundReport:
    """Radical-power bound 4 * phi(rad n)^e * phi(n)^2 with the exponent e
    depending only on omega(n) (0, 1, 2, 4, 7, 11 for omega = 1..6).
    Polynomial in n, unlike the general bound's n^(2^omega) blow-up."""
    c = as_conductor(n)
    if c.omega < 1 or c.omega > 6:
        return _inapplicable(
            Kind.BOUND_REFINED,
            f"omega(n) = {c.omega} outside the proven range 1..6")
    e = _REFINED_EXP[c.omega]
    exact = 4 * _phi_rad(c) ** e * c.phi ** 2
    sym = SymbolicValue(Fraction(exact))
    return _from_symbolic(Kind.BOUND_REFINED, sym, exponent=2 + e)


def cond_bound_quadratic(p) -> BoundReport:
    """Envelope 2 + sqrt(p) for a quadratic block, both residue classes."""
    p = operator.index(p)
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    return BoundReport(kind=Kind.BOUND_QUADRATIC, value=2.0 + math.sqrt(p), exponent=0)


def _times_envelopes(value: float, primes) -> float:
    """value * prod (2 + sqrt p), multiplied left to right."""
    return math.prod((cond_bound_quadratic(p).value for p in primes), start=value)


def cond_bound_cyclomq(n, primes) -> BoundReport:
    """Twisted cyclo-multiquadratic bound phi(n) * 2^(omega/2) * prod (2 + sqrt p)."""
    c = as_conductor(n)
    primes = check_quad_primes(c.n, primes)
    if c.n < 2:
        return _inapplicable(Kind.BOUND_CYCLOMQ, "need n >= 2")
    value = _times_envelopes(c.phi * 2.0 ** (0.5 * c.omega), primes)
    sym = SymbolicValue(Fraction(c.phi), Fraction(1 << c.omega)) if not primes else None
    return BoundReport(kind=Kind.BOUND_CYCLOMQ, value=value, symbolic=sym)


def hybrid_bound(n, primes) -> BoundReport:
    """Power-basis cyclo-multiquadratic bound: the refined cyclotomic bound
    times prod (2 + sqrt p) over the quadratic primes.  exponent is the
    refined bound's power of m in the growth envelope (m^2 .. m^13 as omega
    runs 1..6)."""
    c = as_conductor(n)
    primes = check_quad_primes(c.n, primes)
    base = cond_bound_refined(c)
    if not base.applicable:
        return _inapplicable(Kind.BOUND_HYBRID, base.reason)
    return BoundReport(kind=Kind.BOUND_HYBRID, value=_times_envelopes(base.value, primes),
                       exponent=base.exponent)


# ---------------------------------------------------------------------------
# Supporting estimates.

def height_bound_56(n) -> BoundReport:
    """Coefficient-height upper estimates for 4 <= omega(n) <= 6 in terms of
    the smallest prime factors p < q < r < s of n:

        omega = 4:  p (p - 1) (p q - 1)
        omega = 5:  (135/512)  p^7  q^3  r
        omega = 6:  (18225/262144) p^15 q^7 r^3 s
    """
    c = as_conductor(n)
    if not 4 <= c.omega <= 6:
        return _inapplicable(
            Kind.HEIGHT_BOUND,
            f"omega(n) = {c.omega} outside the estimated range 4..6")
    ps = [p for p, _ in c.factors]
    p, q = ps[0], ps[1]
    if c.omega == 4:
        sym = SymbolicValue(Fraction(p * (p - 1) * (p * q - 1)))
    elif c.omega == 5:
        r = ps[2]
        sym = SymbolicValue(Fraction(135 * p ** 7 * q ** 3 * r, 512))
    else:
        r, s = ps[2], ps[3]
        sym = SymbolicValue(Fraction(18225 * p ** 15 * q ** 7 * r ** 3 * s, 262144))
    return _from_symbolic(Kind.HEIGHT_BOUND, sym)


def omega_upper_bound(n) -> float:
    """Unconditional bound omega(n) <= 1.3841 * ln n / ln ln n for n >= 3."""
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"bound needs n >= 3, got {n}")
    return 1.3841 * math.log(n) / math.log(math.log(n))
