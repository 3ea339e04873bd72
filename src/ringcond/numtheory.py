"""Exact integer and polynomial number theory.

Factorization into a `Conductor`, which derives its multiplicative data once
from its factors; cyclotomic polynomials with exact integer coefficients, and
their heights (maximum absolute coefficient).

Factorization is one trial-division loop, over a constant tuple of the primes
below 2^10 and then the odd numbers past them; the same loop serves every n.

Cyclotomic polynomials are computed over the squarefree radical first and then
lifted by exponent substitution, so the expensive exact arithmetic never runs
at a degree larger than phi(rad(n)).  Heights go one step further, to the odd
squarefree kernel s of n (the odd part of rad n), since Phi_2s(x) = Phi_s(-x):
A(n) = A(s).  A ternary kernel pqr goes on to its representative pqr', r' the
least prime above q with r' = +-r (mod pq), since A(pqr') = A(pqr) (Kaplan's
periodicity, J. Number Theory 127, 2007), and only the lower half of the
representative's Phi is expanded.  A ternary series comes from Kaplan's
lemma in the same paper, Phi_pqr = Phi_pq(x^r) (1 + ... + x^(p-1))
(1 - x^q) / (1 - x^pq) with Phi_pq in Lam and Leung's closed form: its
numerator's terms placed in one int64 buffer, then one product and one
division pass.  Every other series is the Moebius product
prod (1 - x^e)^mu, each factor one in-place pass over a single buffer that
turns from int64 to Python ints where it could overflow; it is also the
ternary series' oracle.

`is_prime` is Miller-Rabin on as few of the prime bases 2..41 as decide n,
after two screens that reject most composites: a gcd with the product of
those bases and a base-2 Fermat test.

Constant tuples are the module's only state: every function is pure, and a
caller that meets one class many times (a `cond` sweep) keeps its own memo.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, combinations, count

import numpy as np

# int64 headroom for the exact series arithmetic; a series that might exceed
# this continues on arbitrary-precision objects.
_INT64_CAP = 1 << 62

# The primes below 2^10, the trial divisors `factorize` tries first; alone they
# factor every n < 2^20.
_PRIMES = tuple(p for p in range(2, 1 << 10)
                if all(p % d for d in range(2, math.isqrt(p) + 1)))


@dataclass(frozen=True)
class Conductor:
    """A positive integer, derived once from its prime factorization.

    `factors` is the only argument, trusted and not checked (primes ascending,
    exponents >= 1, as `factorize` gives them); the rest is computed from it.

    Attributes
    ----------
    factors : tuple of (prime, exponent)
        Prime factorization, primes strictly increasing, exponents >= 1.
    n : int
        The integer itself.
    phi : int
        Euler totient.
    rad : int
        Radical (product of the distinct primes).
    omega : int
        Number of distinct prime factors.
    phi_rad : int
        phi(rad n), the product of p - 1 over the distinct primes.
    """

    factors: tuple
    n: int = field(init=False)
    phi: int = field(init=False)
    rad: int = field(init=False)
    omega: int = field(init=False)
    phi_rad: int = field(init=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        n = rad = phi_rad = 1
        for p, e in factors:
            n *= p ** e
            rad *= p
            phi_rad *= p - 1
        for name, value in (("factors", factors), ("n", n), ("phi", n // rad * phi_rad),
                            ("rad", rad), ("omega", len(factors)), ("phi_rad", phi_rad)):
            object.__setattr__(self, name, value)


def factorize(n: int) -> Conductor:
    """Factor a positive integer into a Conductor.

    Trial division by the primes below 2^10, then by the odd numbers past
    them, up to the square root of the part not yet factored; the primes come
    out ascending.

    Examples
    --------
    >>> c = factorize(360)
    >>> c == Conductor(((2, 3), (3, 2), (5, 1))), (c.n, c.phi, c.rad, c.omega, c.phi_rad)
    (True, (360, 96, 30, 3, 8))
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"conductor must be a positive integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"conductor must be a positive integer, got {n}")
    factors = []
    m = n
    limit = math.isqrt(m)
    for p in chain(_PRIMES, count(_PRIMES[-1] + 2, 2)):
        if p > limit:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
            limit = math.isqrt(m)
    if m > 1:
        factors.append((m, 1))
    return Conductor(factors)


def as_conductor(n) -> Conductor:
    """Coerce an int or Conductor to a Conductor."""
    if isinstance(n, Conductor):
        return n
    return factorize(n)


# psi_k, the least strong pseudoprime to each of the first k prime bases, for
# k = 1..13 (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2015): the
# first k bases decide every n < psi_k.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PRODUCT = math.prod(_MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first k of the 13 prime bases 2..41,
    k the least with n < psi_k, for n below 3317044064679887385961981 =
    psi_13; ValueError from psi_13 on.  Two screens reject most composites
    first: one gcd with the product of the bases, and a base-2 Fermat test,
    which a prime passes and which runs in one `pow`."""
    n = operator.index(n)
    if n >= _PSI[-1]:
        raise ValueError(f"is_prime decides only n < {_PSI[-1]}, got {n}")
    if n < 2:
        return False
    if math.gcd(n, _MR_PRODUCT) != 1:
        return n in _MR_BASES
    if pow(2, n - 1, n) != 1:
        return False
    bases = _MR_BASES[:bisect.bisect_right(_PSI, n) + 1]
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_quad_primes(n: int, primes) -> tuple:
    """The quadratic primes adjoined to conductor n, as a tuple of ints:
    distinct primes, none of which divides n; ValueError otherwise."""
    primes = tuple(map(operator.index, primes))
    if len(set(primes)) != len(primes):
        raise ValueError(f"quadratic primes must be distinct, got {primes}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"quadratic primes must be prime, got {p}")
        if n % p == 0:
            raise ValueError(f"quadratic prime {p} divides the conductor {n}")
    return primes


def first_primes(count: int, exclude=()) -> list:
    """The first `count` primes not contained in `exclude`."""
    out = []
    p = 2
    excl = set(exclude)
    while len(out) < count:
        if is_prime(p) and p not in excl:
            out.append(p)
        p += 1
    return out


# A division by (1 - x^e) over fewer rows than this, each at least this long,
# runs as a loop of row slices (about 1 us a row), else as one cumsum down the
# columns of the (rows, e) view.  Cumsum vs loop on a 2-core Xeon (numpy 2.4.6,
# int64, min of 5 timeit runs): 93 vs 6 us at 4 rows of 5000, 52 vs 34 at 32 of
# 500, 45 vs 101 at 64 of 250, 3 vs 42 at 31 of 1.  Heights over n = 2..1e5
# (step 3) took the same time, within noise, for every value from 32 to 128.
_CUMSUM_MIN_ROWS = 32


def _divide(a: np.ndarray, e: int, num_terms: int) -> None:
    """a /= (1 - x^e) mod x^num_terms, in place: a prefix sum along each
    residue class mod e, over the rows of a's (rows, e) view.  `a` holds at
    least num_terms + e - 1 entries; those past num_terms are scratch that
    pads the view, and their values only ever flow upward."""
    rows = -(-num_terms // e)
    if rows < _CUMSUM_MIN_ROWS <= e:
        for i in range(e, rows * e, e):
            a[i:i + e] += a[i - e:i]
    else:
        v = a[:rows * e].reshape(rows, e)
        np.cumsum(v, axis=0, out=v)


def _series_run(terms, num_terms: int) -> np.ndarray:
    """prod (1 - x^e)^mu over `terms` mod x^num_terms, for 1 <= e < num_terms.

    One buffer of num_terms + max(e) entries is updated in place: a product
    is one shifted subtraction, a division one `_divide`.  The entries past
    num_terms are scratch; the first num_terms stay exact.  An int64 buffer
    tracks an upper bound on its largest magnitude (x2 per product, x rows per
    division), takes the true maximum only when the bound would pass the test
    against _INT64_CAP, and turns into Python ints in place if that fails too.
    """
    a = np.zeros(num_terms + max((e for e, _ in terms), default=0), dtype=np.int64)
    a[0] = 1
    # >= a[0] = 1 while a is int64; 0, which no test trips, once it is object
    bound = 1
    for e, mu in terms:
        growth = 2 if mu > 0 else -(-num_terms // e)
        if bound > _INT64_CAP // growth:
            bound = int(np.abs(a[:num_terms]).max())
            if bound > _INT64_CAP // growth:
                a, bound = a.astype(object), 0
        bound *= growth
        if mu > 0:
            a[e:num_terms] -= a[:num_terms - e]
        else:
            _divide(a, e, num_terms)
    return a[:num_terms]


def _radical_series(primes, num_terms: int) -> np.ndarray:
    """Coefficients of Phi_rad mod x^num_terms, for rad the product of the
    distinct `primes` (at least one).

    Uses the Moebius product over the divisors e of rad,
    prod (1 - x^e)^{mu(rad/e)} (the sparse power series of Arnold and
    Monagan), expanded in place in one buffer by `_series_run`.  Exact:
    int64 while a bound check passes, Python ints from the first factor
    where it fails.
    """
    k = len(primes)
    # (1 - x^e) is the identity under truncation once e >= num_terms
    terms = [(e, -1 if (k - r) % 2 else 1)
             for r in range(k + 1) for sub in combinations(primes, r)
             if (e := math.prod(sub)) < num_terms]
    terms.sort(reverse=True)
    return _series_run(terms, num_terms)


def _binary_cyclotomic(p: int, q: int) -> np.ndarray:
    """Coefficients of Phi_pq, ascending, for distinct primes p and q, from
    Lam and Leung's closed form (Amer. Math. Monthly 103, 1996).

    With (p - 1)(q - 1) = rho p + sigma q (rho + 1 = 1/p mod q, sigma + 1 =
    1/q mod p), Phi_pq has +1 at ip + jq for i <= rho, j <= sigma, -1 at
    ip + jq - pq for i > rho, j > sigma, and 0 elsewhere.

    Examples
    --------
    >>> _binary_cyclotomic(3, 5)
    array([ 1, -1,  0,  1, -1,  1,  0, -1,  1])
    """
    rho, sigma = pow(p, -1, q) - 1, pow(q, -1, p) - 1
    # ip + jq for i < q, j < p: one exponent per residue class mod pq
    e = np.add.outer(np.arange(0, p * q, p), np.arange(0, p * q, q))
    c = np.zeros((p - 1) * (q - 1) + 1, dtype=np.int64)
    c[e[:rho + 1, :sigma + 1]] = 1
    c[e[rho + 1:, sigma + 1:] - p * q] = -1
    return c


def _ternary_series(primes, num_terms: int) -> np.ndarray:
    """Coefficients of Phi_pqr mod x^num_terms, for (p, q, r) = `primes`,
    three distinct primes in any order, from the lower half to the whole:
    phi(pqr) / 2 + 1 <= num_terms <= phi(pqr) + 1.

    Kaplan's lemma (J. Number Theory 127, 2007) divides Phi_pq(x^r) by
    Phi_pq(x) = (1 - x)(1 - x^pq) / ((1 - x^p)(1 - x^q)):
    Phi_pqr = Phi_pq(x^r) (1 + x + ... + x^(p-1)) (1 - x^q) / (1 - x^pq).
    The numerator's terms go straight into one int64 buffer: each term c x^e
    of Phi_pq (`_binary_cyclotomic`) puts c at r e + m for m < p, rows e to
    e + (p - 1) // r of the buffer's (rows, r) view, where slots of different
    terms coincide only when r < p and add up.  Then one shifted subtraction
    and one `_divide`: every partial sum of that division below num_terms is
    a coefficient of Phi_pqr, at most min(p, q, r) - 1 in size (Bang), and
    the scratch past num_terms adds only a few numerator terms to one, so
    int64 never overflows.
    """
    p, q, r = primes
    c = _binary_cyclotomic(p, q)
    rows = -(-num_terms // r)
    a = np.zeros(num_terms + max(p * q, r), dtype=np.int64)
    v = a[:rows * r].reshape(rows, r)
    # slot r e + m is column m % r of row e + m // r
    for t in range(0, p, r):
        v[t // r:, :p - t] += c[:rows - t // r, None]
    a[q:num_terms] -= a[:num_terms - q]
    _divide(a, p * q, num_terms)
    return a[:num_terms]


def cyclotomic_poly(n: int) -> np.ndarray:
    """Exact coefficients of the n-th cyclotomic polynomial, ascending degree.

    Returns an int64 array unless the series had to turn to Python ints (an
    object array).  The result is monic of degree phi(n).

    Examples
    --------
    >>> cyclotomic_poly(4)
    array([1, 0, 1])
    >>> cyclotomic_poly(6)
    array([ 1, -1,  1])
    """
    c = as_conductor(n)
    if c.n == 1:
        return np.array([-1, 1], dtype=np.int64)
    rad_coeffs = _radical_series([p for p, _ in c.factors], c.phi_rad + 1)
    out = np.zeros(c.phi + 1, dtype=rad_coeffs.dtype)
    out[::c.n // c.rad] = rad_coeffs
    return out


def _height_primes(c: Conductor) -> list:
    # the odd primes of c, the largest swapped for r' when there are three
    odd = [p for p, _ in c.factors if p != 2]
    if len(odd) == 3:
        p, q, r = odd
        m = p * q
        lo, hi = sorted((r % m, -r % m))
        odd[2] = next(x for base in count(0, m) for x in (base + lo, base + hi)
                      if x > q and (x == r or is_prime(x)))
    return odd


def height_kernel(n) -> int:
    """The integer whose series gives A(n): the odd squarefree kernel s of
    n, with its largest prime r swapped for r' when s = pqr, p < q < r.

    r' is the least prime above q with r' = +-r (mod pq); A(pqr') = A(pqr)
    by Kaplan's periodicity, which needs r' > q: 5*13*7 has height 2, but
    5*13*137 height 3.  r itself qualifies, so r' <= r, and a kernel is its
    own representative's representative.

    Examples
    --------
    >>> height_kernel(2 * 5 * 7 * 59), height_kernel(5 * 7 * 11)
    (385, 385)
    """
    return math.prod(_height_primes(as_conductor(n)))


def height(n: int) -> int:
    """A(n): the maximum absolute coefficient of Phi_n.

    A(n) = A(s) for s the odd part of rad n: Phi_n(x) = Phi_rad n(x^(n/rad n))
    only spreads the coefficients out, and Phi_2s(x) = Phi_s(-x) only flips
    signs; a ternary s shares its height with its `height_kernel`.  No series
    is expanded when omega(s) <= 2; otherwise the lower half of the
    representative's Phi is, on each call, by Kaplan's lemma when it is
    ternary (`_ternary_series`) and by the Moebius product when it has four
    or more primes: a caller that meets one class many times keys its memo
    by `height_kernel`.

    Examples
    --------
    >>> height(15015), height(255255)
    (23, 532)
    >>> height(5 * 7 * 11), height(5 * 7 * 59)
    (3, 3)
    >>> height(5 * 71 * 137), height(41 * 43 * 53)
    (2, 17)
    """
    return _kernel_height(_height_primes(as_conductor(n)))


def _kernel_height(odd) -> int:
    """A(s) for s the product of `odd`, the odd primes `_height_primes`
    gives: the body of `height`, for a caller that has them already."""
    # Phi_1, Phi_p and Phi_pq have coefficients in {-1, 0, 1};
    # cross-checked against the full series of Phi_n in the tests.
    if len(odd) < 3:
        return 1
    # Phi_s is palindromic, so the lower half carries every coefficient
    # magnitude.
    half_terms = math.prod(p - 1 for p in odd) // 2 + 1
    series = _ternary_series if len(odd) == 3 else _radical_series
    return int(np.abs(series(odd, half_terms)).max())
