"""Change-of-basis matrices between coordinate and canonical embeddings.

Cyclotomic Vandermonde matrices on primitive roots of unity, real 2x2
quadratic-field blocks, and their Kronecker products for the power, twisted
and hybrid bases of cyclo-multiquadratic composita, plus numeric condition
numbers for all of them.  One factor list, `_kron_factors`, underlies both.

Two numeric condition numbers are offered.  `numeric_cond` materializes the
matrix and inverts it densely (LAPACK, or the compensated refinement at
extended precision); it is the reference.  `factored_cond` never builds the
Kronecker product and inverts no matrix: kappa_F(A (x) B) = kappa_F(A)
kappa_F(B) holds exactly (the Frobenius norm is multiplicative under (x), and
(A (x) B)^-1 = A^-1 (x) B^-1), so it multiplies the condition numbers of the
factors.  A quadratic block B gives ||B||_F^2 / |det B| (B^-1 = adj B / det B).
Each cyclotomic Vandermonde factor V_n is reduced to its odd squarefree
kernel s, the odd part of rad n: Phi_n(x) = Phi_rad n(x^(n / rad n)) and
Phi_2s(x) = Phi_s(-x) give kappa_F(V_n) = (n / rad n) kappa_F(V_s) exactly,
and the conjugate root's column of V_s^-1 is the conjugate column, so only
the half W of the columns, at the roots k_j < s/2, is summed.  ||W||_F
comes from Parseval's identity over the s-th roots of unity, not from the
inverse.  Column j of V_s^-1 holds the coefficients of the Lagrange
polynomial L_j = Phi_s / ((x - zeta_j) Phi_s'(zeta_j)) of degree < s, so
||L_j||^2 = (1/s) sum_{w^s = 1} |L_j(w)|^2; L_j is 1 at zeta_j and 0 at the
other primitive roots.  With c(r) = 2 |sin(pi r/s)| that gives

    ||W||_F^2 = (1/s) sum_{k_j < s/2} [1 + A_j^-2 sum_{gcd(k, s) > 1}
                                               B_k^2 / c(k - k_j)^2]

with A_j = |Phi_s'(zeta_j)| = s prod_{e | s, e > 1} c(k_j s/e)^mu(e), the
modulus of `_cyclotomic_derivative`, and B_k = |Phi_s(zeta^k)| =
exp Lambda(g) prod_{d | s, s does not divide kd} c(kd)^mu(s/d) for
g = gcd(k, s): the factors of Phi_s = prod_{d | s} (x^d - 1)^mu(s/d) that
vanish at zeta^k cancel to exp Lambda(g), which is g for a prime g and 1
otherwise.  Every term is positive, so nothing cancels, and each is one
gather from one table of c over r mod s: O((s - phi(s)) phi(s)/2) work with
no loop over phi.  A prime s = p has only w = 1 outside the primitive roots,
where |L_j(1)| = B_0 / (c(k_j) A_j) = p / (c(k_j) p / c(k_j)) = 1, so
||L_j||^2 = 2/p and ||W_p||_F^2 = (p - 1)/p exactly.  `FactoredCond` takes
that quotient for every prime kernel, every twisted factor among them, and
sums only composite kernels; the tests and `verify` hold the general sum to
the quotient bit for bit.
`cyclotomic_vandermonde_inverse`, the one explicit inverse in the package,
divides the exact integer Phi_n synthetically by (x - zeta) for every root
at once, over the closed-form derivatives Phi_n'(zeta); the tests hold the
Parseval norm to it.  The numeric columns of `ringcond cond` come from one
`FactoredCond` per sweep, which computes ||W||_F once per kernel s and sums
only the composite ones.

Every Vandermonde is built here from a validated conductor, so its roots are
distinct by construction (at least 2 sin(pi/n) apart), and is refused before
allocation when phi(n) > MAX_DIMENSION.  Primitive roots come by ascending
residue k with gcd(k, n) = 1, tensor factors by ascending prime: the
matrices, unlike their condition numbers, depend on that order.

Precision: every function that builds numbers from integers takes a
`real=np.float64` keyword, the real numpy dtype to compute in; the matching
complex dtype is np.promote_types(real, np.complex128).  np.longdouble gives
the extended-precision matrices and condition numbers; a `real` outside
`linalg.PRECISIONS` raises ValueError.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .numtheory import Conductor, as_conductor, check_quad_primes, cyclotomic_poly, is_prime

# pi to more digits than any supported significand; np.float64 of it is np.pi
_PI_STR = "3.14159265358979323846264338327950288419716939937510582097494459"

# the largest matrix or Vandermonde factor any evaluator materializes
MAX_DIMENSION = 4096

# entries of the (column x non-primitive root) block that one pass of
# `_half_inverse_norm2` gathers, so its scratch memory is bounded whatever s
_NORM_BLOCK = 1 << 16


class Basis(enum.Enum):
    POWER = "power"
    TWISTED = "twisted"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class EmbeddingSpec:
    """A conductor, an optional list of extra quadratic primes, and a basis.

    quad_primes must be distinct primes none of which divides the conductor;
    the hybrid basis requires at least one, the power basis none.  basis is a
    Basis or a Basis value ("power", "twisted", "hybrid"); ValueError
    otherwise.
    """

    conductor: Conductor
    quad_primes: tuple = ()
    basis: Basis = Basis.POWER

    def __post_init__(self):
        c = as_conductor(self.conductor)
        object.__setattr__(self, "conductor", c)
        if c.n < 2:
            raise ValueError("need a conductor n >= 2")
        primes = check_quad_primes(c.n, self.quad_primes)
        object.__setattr__(self, "quad_primes", primes)
        object.__setattr__(self, "basis", Basis(self.basis))
        if self.basis == Basis.HYBRID and not primes:
            raise ValueError("hybrid basis requires a nonempty quad_primes list")
        if self.basis == Basis.POWER and primes:
            raise ValueError("power basis takes no quadratic primes")

    @property
    def dimension(self) -> int:
        return self.conductor.phi * (1 << len(self.quad_primes))


def _check_real(real):
    # identity, not equality: np.dtype("f8") == np.float64, yet only the
    # scalar types themselves can build numbers here
    if not any(real is t for t in linalg.PRECISIONS.values()):
        allowed = ", ".join(f"np.{t.__name__}" for t in linalg.PRECISIONS.values())
        raise ValueError(f"real must be one of {allowed}, got {real!r}")


def _two_pi(real=np.float64):
    _check_real(real)
    return real(2) * real(_PI_STR)


def _roots_table(n: int, real) -> np.ndarray:
    # exp(2*pi*i*j/n) for j < n, each entry from its own angle
    theta = _two_pi(real) * np.arange(n).astype(real) / real(n)
    return np.cos(theta) + np.sin(theta) * np.promote_types(real, np.complex128).type(1j)


def primitive_roots_of_unity(n, *, real=np.float64) -> np.ndarray:
    """exp(2*pi*i*k/n) for the ascending k coprime to n, complex dtype of `real`."""
    c = as_conductor(n)
    return _roots_table(c.n, real)[_units(c)]


def _units(c: Conductor) -> np.ndarray:
    # the ascending k in [1, n) coprime to n
    if c.n < 2:
        raise ValueError("need a conductor n >= 2")
    ks = np.arange(1, c.n, dtype=np.int64)
    return ks[np.gcd(ks, c.n) == 1]


def _chord(r, s: int, real) -> np.ndarray:
    # 2 |sin(pi r/s)| for integers 0 <= r <= s, its sine taken at the angle
    # folded into [0, pi/2], so c(s - r) is c(r) to the last bit
    pi = _two_pi(real) / real(2)
    return 2 * np.sin(pi * np.minimum(r, s - r).astype(real) / real(s))


def _cyclotomic_derivative(c: Conductor, *, real=np.float64) -> np.ndarray:
    """Phi_n'(zeta_k) at the roots of `primitive_roots_of_unity`, free of
    cancellation.

    x^n - 1 = Phi_n(x) prod_{d | n, d < n} Phi_d(x) and Moebius inversion give
    Phi_n'(zeta) = n zeta^-1 prod_{s | rad n, s > 1} (zeta^(n/s) - 1)^mu(s),
    and zeta_k^(n/s) - 1 = 2 sin(pi k/s) * i exp(i pi k/s).  So the modulus
    is a product of 2^omega - 1 sines and the phase a rational turn, summed
    exactly in units of pi/(2n).
    """
    n = c.n
    ks = _units(c)
    pi = _two_pi(real) / real(2)
    amp = np.full(ks.size, real(n))
    turns = -4 * ks
    primes = [p for p, _ in c.factors]
    for w in range(1, len(primes) + 1):
        for sub in itertools.combinations(primes, w):
            s, mu = math.prod(sub), (-1) ** w
            # the signed chord 2 sin(pi k/s)
            m = ks % (2 * s)
            chord = _chord(m % s, s, real)
            chord = np.where(m > s, -chord, chord)
            amp = amp * chord if mu > 0 else amp / chord
            turns += mu * (n + 2 * ks * (n // s))
    theta = pi * (turns % (4 * n)).astype(real) / real(2 * n)
    return amp * (np.cos(theta) + np.sin(theta) * np.promote_types(real, np.complex128).type(1j))


def _vandermonde_conductor(n) -> Conductor:
    # the conductor of a phi(n) x phi(n) Vandermonde, checked before allocation
    c = as_conductor(n)
    if c.phi > MAX_DIMENSION:
        raise ValueError(
            f"Vandermonde factor of dimension {c.phi} exceeds the cap {MAX_DIMENSION}"
        )
    return c


def cyclotomic_vandermonde(n, *, real=np.float64) -> np.ndarray:
    """phi(n) x phi(n) Vandermonde on the primitive n-th roots of unity:
    entry (i, j) is zeta_i^j, the n-th root at the exact exponent k_i j mod n."""
    c = _vandermonde_conductor(n)
    return _roots_table(c.n, real)[np.multiply.outer(_units(c), np.arange(c.phi)) % c.n]


def _exact_cast(coeffs: np.ndarray, real) -> np.ndarray:
    """Integer coefficients cast to `real`, refusing any the cast would round."""
    out = coeffs.astype(real)
    if coeffs.dtype == object:  # Python ints past int64
        exact = all(int(x) == v for x, v in zip(out, coeffs))
    else:
        exact = np.array_equal(out.astype(coeffs.dtype), coeffs)
    if not exact:
        raise ValueError(f"integer coefficients do not all fit np.{real.__name__} exactly")
    return out


def cyclotomic_vandermonde_inverse(n, *, real=np.float64) -> np.ndarray:
    """Inverse of `cyclotomic_vandermonde(n)` in O(phi(n)^2).

    Column j holds the coefficients of the Lagrange basis polynomial
    Phi_n / ((x - zeta_j) Phi_n'(zeta_j)): one synthetic division of the exact
    integer Phi_n, cast to `real` without rounding, vectorized across all
    columns, over the closed-form derivatives Phi_n'(zeta_j).
    """
    c = _vandermonde_conductor(n)
    roots = primitive_roots_of_unity(c, real=real)
    p = _exact_cast(cyclotomic_poly(c), real)
    q = np.empty((c.phi, c.phi), dtype=roots.dtype)
    q[-1] = 1  # Phi_n is monic
    for i in range(c.phi - 2, -1, -1):
        np.multiply(roots, q[i + 1], out=q[i])
        q[i] += p[i + 1]
    q /= _cyclotomic_derivative(c, real=real)
    return q


def _half_inverse_norm2(k: Conductor, real):
    # ||W||_F^2 over the columns of V_s^-1 at the roots k_j < s/2, s = k.n odd
    # squarefree > 1, by Parseval over the s-th roots (module docstring).
    # FactoredCond runs it only on composite kernels: on a prime p it returns
    # exactly (p - 1)/p, the value the evaluator takes instead, and stays
    # callable there as that identity's oracle
    s = k.n
    primes = [p for p, _ in k.factors]
    divisors = [(math.prod(sub), (-1) ** w)
                for w in range(len(primes) + 1)
                for sub in itertools.combinations(primes, w)]
    ks = np.arange(s)
    chord = _chord(ks, s, real)
    # c(0) = 0 is read only as a vanishing factor of some B_k, and those
    # cancel to exp Lambda(g)
    chord[0] = 1
    g = np.gcd(ks, s)
    half = ks[g == 1][:k.phi // 2]
    outer, g = ks[g > 1], g[g > 1]
    # A_j = |Phi_s'(zeta_j)| = s prod_{e | s, e > 1} c(k_j s/e)^mu(e)
    amp = np.full(half.size, real(s))
    for e, mu in divisors[1:]:
        f = chord[half * (s // e) % s]
        amp = amp * f if mu > 0 else amp / f
    # B_k = |Phi_s(zeta^k)| = exp Lambda(g) prod_{d | s, kd != 0 mod s}
    # c(kd)^mu(s/d), with mu(s/d) = mu(s) mu(d)
    mu_s = (-1) ** len(primes)
    # exp Lambda(g) by lookup, over every g | s including g = gcd(0, s) = s
    lam = np.ones(s + 1, dtype=real)
    lam[primes] = primes
    b = lam[g]
    for d, mu in divisors:
        f = chord[outer * d % s]
        b = b * f if mu * mu_s > 0 else b / f
    b2 = b * b
    inv2 = 1 / (chord * chord)  # k_j - k is never 0 mod s
    rows = max(1, _NORM_BLOCK // outer.size)
    total = real(0)
    for i in range(0, half.size, rows):
        # k_j - k lies in (-s, s/2), and numpy reads index -r as s - r: the
        # same float, since _chord takes its sine at min(r, s - r)
        block = inv2[np.subtract.outer(half[i:i + rows], outer)]
        a = amp[i:i + rows]
        total += (1 + (block @ b2) / (a * a)).sum()
    return total / real(s)


def quadratic_block(p: int, *, real=np.float64) -> np.ndarray:
    """2x2 real integral-basis block for Q(sqrt(p)).

    Rows evaluate the integral basis at the two real embeddings: (1, +-sqrt p)
    when p = 2,3 (mod 4), and (1, (1 +- sqrt p)/2) when p = 1 (mod 4).
    """
    _check_real(real)
    p = operator.index(p)
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    s = np.sqrt(real(p))
    one = real(1)
    if p % 4 == 1:
        half = real(1) / real(2)
        return np.array([[one, (one + s) * half], [one, (one - s) * half]])
    return np.array([[one, s], [one, -s]])


def _kron_factors(spec: EmbeddingSpec):
    # the spec's Kronecker factors in order: the cyclotomic conductors (the
    # prime-power parts of n if twisted, else n), then the quadratic primes
    c = spec.conductor
    cyclo = [Conductor((f,)) for f in c.factors] if spec.basis == Basis.TWISTED else [c]
    return cyclo, sorted(spec.quad_primes)


def embedding_matrix(spec: EmbeddingSpec, *, real=np.float64) -> np.ndarray:
    """Materialize the spec's change-of-basis matrix.

    power and hybrid basis -> V_{Phi_n}, twisted -> the Kronecker product of
    V_{p^e} over the prime-power parts of n; either tensored with the
    quadratic blocks.  Dimensions above MAX_DIMENSION are refused: a dense
    Frobenius condition number needs the dense inverse, so large parameters
    belong to the formula evaluators instead.
    """
    dim = spec.dimension
    if dim > MAX_DIMENSION:
        raise ValueError(
            f"embedding dimension {dim} exceeds the materialization cap {MAX_DIMENSION}"
        )
    cyclo, quad = _kron_factors(spec)
    blocks = [cyclotomic_vandermonde(n, real=real) for n in cyclo]
    blocks += [quadratic_block(p, real=real) for p in quad]
    return functools.reduce(np.kron, blocks)


def numeric_cond(spec: EmbeddingSpec, *, real=np.float64):
    """Numeric Frobenius condition number of the spec's matrix."""
    return linalg.condition_number(embedding_matrix(spec, real=real))


def _quadratic_cond(p: int, *, real=np.float64):
    # ||B||_F^2 / |det B| for the 2x2 block B (see factored_cond)
    b = quadratic_block(p, real=real)
    return (b * b).sum() / abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])


class FactoredCond:
    """`factored_cond` at one precision, for the many specs of a sweep.

    `FactoredCond(real=real)(spec)` is bitwise `factored_cond(spec,
    real=real)`.  The evaluator keeps a dict from each odd squarefree kernel
    s to ||W_s||_F, the norm before any scaling, so the specs it is applied
    to sum each kernel's Parseval identity once.  A prime kernel p takes
    ||W_p||_F^2 = (p - 1)/p and sums nothing, so a power of p or 2p and
    every twisted prime-power factor cost O(1); only a composite kernel runs
    the sum.  The dict lives and dies with the evaluator.
    """

    def __init__(self, *, real=np.float64):
        _check_real(real)
        self.real = real
        self._norms = {}

    def __call__(self, spec: EmbeddingSpec):
        cyclo, quad = _kron_factors(spec)
        return math.prod([self._cyclotomic(n) for n in cyclo]
                         + [_quadratic_cond(p, real=self.real) for p in quad])

    def _cyclotomic(self, n):
        # (n / rad n) kappa_F(V_s) for s the odd part of rad n (see
        # factored_cond); phi(s) = phi(rad n).  The cap guard runs on n, and
        # a kernel s = 1 builds no Vandermonde.
        real = self.real
        c = _vandermonde_conductor(n)
        s = c.rad if c.n % 2 else c.rad // 2
        if s == 1:
            return real(c.n // c.rad)
        norm = self._norms.get(s)
        if norm is None:
            odd = [(p, 1) for p, _ in c.factors if p != 2]
            # a prime kernel has ||W_p||^2 = (p - 1)/p exactly (module
            # docstring); only a composite one runs the Parseval sum
            if len(odd) == 1:
                norm2 = real(s - 1) / real(s)
            else:
                norm2 = _half_inverse_norm2(Conductor(odd), real)
            norm = self._norms[s] = np.sqrt(norm2)
        return real(c.n // c.rad * c.phi_rad) * np.sqrt(real(2)) * norm


def factored_cond(spec: EmbeddingSpec, *, real=np.float64):
    """Numeric Frobenius condition number of the spec's matrix, by factors.

    Equals `numeric_cond(spec)` up to rounding, in O((s - phi(s)) phi(s))
    time and bounded scratch memory for the largest composite odd squarefree
    kernel s, and inverts no matrix: the product of kappa_F over the
    Kronecker factors of `embedding_matrix`.  A cyclotomic factor V_n gives
    (n / rad n) kappa_F(V_s) with s the odd part of rad n (Phi_n(x) =
    Phi_rad n(x^(n / rad n)), Phi_2s(x) = Phi_s(-x)), and kappa_F(V_s) =
    phi(s) sqrt(2) ||W||_F from the half W of the columns of V_s^-1 whose
    roots lie in the upper half-plane, its norm summed by Parseval's
    identity (module docstring; kappa_F(V_1) = 1).  A prime kernel p needs no sum:
    ||W_p||_F^2 = (p - 1)/p exactly, so a twisted prime-power factor p^e
    costs O(1), as n = 2^e does.  A quadratic block B gives
    ||B||_F^2 / |det B|, exact since B^-1 = adj B / det B and ||adj B||_F =
    ||B||_F.  A Vandermonde factor with phi(n) above MAX_DIMENSION is
    refused, whatever its kernel, as `embedding_matrix` refuses the whole
    matrix.

    This is a fresh `FactoredCond` applied once, so it keeps nothing between
    calls; a sweep makes one `FactoredCond` and reuses each kernel's ||W||_F.
    """
    return FactoredCond(real=real)(spec)

