"""Factorization, cyclotomic coefficients, and coefficient heights.

sympy is the oracle wherever a value is derivable; the classical identities
(degree, palindromy, values at 0 and 1, height invariance under the radical)
are asserted as properties.
"""
import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcond import numtheory as nt


# ---------------------------------------------------------------------------
# factorize / Conductor


def _sympy_factors(n):
    return tuple(sorted(sympy.factorint(n).items()))


@pytest.mark.parametrize(
    "n",
    list(range(1, 64)) + [360, 1024, 6469693230, 2**31 - 1, 600851475143,
                          # the last prime of factorize's table, 1021, and
                          # the first past it, 1031
                          1021**2, 1031**2, 1021 * 1031,
                          # the first prime past 2^20, alone and times 2^20
                          1048583, 2**20 * 1048583,
                          10**12 + 39],  # prime
)
def test_factorize_matches_sympy(n):
    c = nt.factorize(n)
    assert c.n == n
    assert c.factors == _sympy_factors(n)
    assert c.phi == sympy.totient(n)
    assert c.omega == len(c.factors)
    rad = 1
    for p, _ in c.factors:
        rad *= p
    assert c.rad == rad


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_reconstructs(n):
    c = nt.factorize(n)
    prod = 1
    for p, e in c.factors:
        assert e >= 1
        assert nt.is_prime(p)
        prod *= p**e
    assert prod == n
    assert tuple(sorted(c.factors)) == c.factors


@pytest.mark.parametrize("bad", [0, -7, 2.5, "12", None, True])
def test_factorize_rejects_non_positive_ints(bad):
    with pytest.raises(ValueError):
        nt.factorize(bad)


def test_factorize_accepts_numpy_ints():
    assert nt.factorize(np.int64(12)).factors == ((2, 2), (3, 1))


def test_conductor_guards_inconsistent_factors():
    # the factorization is the only input; every other field derives from it,
    # so no n, phi, rad or omega can be handed in that disagrees with it
    with pytest.raises(TypeError):
        nt.Conductor(n=6, factors=((2, 1), (3, 1)), phi=99, rad=6, omega=2)
    assert nt.Conductor(((2, 1), (3, 1))) == nt.factorize(6)
    for n in range(1, 2001):
        c = nt.factorize(n)
        phi_rad = 1
        for p, _ in c.factors:
            phi_rad *= p - 1
        assert c.phi_rad == phi_rad, n


def test_as_conductor_passthrough():
    c = nt.factorize(12)
    assert nt.as_conductor(c) is c
    assert nt.as_conductor(12) == c


# ---------------------------------------------------------------------------
# is_prime / first_primes


def test_is_prime_matches_sympy_small():
    for n in range(-3, 2000):
        assert nt.is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (3825123056546413051, False),  # strong pseudoprime to first 9 prime bases
        (2**61 - 1, True),  # Mersenne prime
        (10**18 + 9, True),
        # psi_12 = 399165290221 * 798330580441: strong pseudoprime to 2..37
        (318665857834031151167461, False),
    ],
)
def test_is_prime_hard_cases(n, expected):
    assert nt.is_prime(n) == expected


def test_is_prime_screens_agree_with_sympy():
    # the gcd and base-2 Fermat screens on the ring-swap bench search, the
    # 20,126 terms q = 1 (mod 2^17) from the first above 2^29 (its modulus
    # 3169320961 among them), where v2(q - 1) >= 17 ...
    step = 1 << 17
    q0 = ((1 << 29) // step + 1) * step + 1
    progression = range(q0, q0 + 20126 * step, step)
    assert 3169320961 in progression
    for q in progression:
        assert nt.is_prime(q) == sympy.isprime(q), q
    # ... and on every base-2 Fermat pseudoprime below 10^5: each passes the
    # Fermat screen or falls to the gcd, and is_prime must still say no
    pseudo = [n for n in range(3, 10**5, 2) if pow(2, n - 1, n) == 1 and not sympy.isprime(n)]
    assert len(pseudo) == 78 and pseudo[:3] == [341, 561, 645]
    assert not any(map(nt.is_prime, pseudo))
    assert any(math.gcd(n, nt._MR_PRODUCT) == 1 for n in pseudo)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_takes_one_more_base_from_psi_k(k):
    # psi_k is composite and passes the first k bases, so from psi_k on
    # is_prime must try base k + 1; either side of it sympy agrees
    psi = nt._PSI[k - 1]
    assert not sympy.isprime(psi)
    assert all(_strong_probable_prime(psi, a) for a in nt._MR_BASES[:k])
    assert not nt.is_prime(psi)
    for n in range(psi - 200, psi + 200):
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_from_psi_13_on():
    # psi_13, strong pseudoprime to all 13 bases 2..41, is where they stop
    # deciding; the prime just below it is still decided
    assert nt.is_prime(3317044064679887385961813)
    for n in (3317044064679887385961981, 3317044064679887385961981 + 2, 10**30):
        with pytest.raises(ValueError):
            nt.is_prime(n)


@pytest.mark.parametrize("bad", [7.9, 12289.5, 7.0])
def test_is_prime_rejects_floats_not_truncates(bad):
    with pytest.raises(TypeError):
        nt.is_prime(bad)


def test_is_prime_accepts_numpy_ints():
    assert nt.is_prime(np.int64(12289)) and nt.is_prime(np.uint32(7))
    assert not nt.is_prime(np.int32(12288))


def test_first_primes():
    assert nt.first_primes(5) == [2, 3, 5, 7, 11]
    assert nt.first_primes(4, exclude=(2,)) == [3, 5, 7, 11]
    assert nt.first_primes(0) == []


# ---------------------------------------------------------------------------
# cyclotomic_poly


def _sympy_cyclotomic(n):
    return np.array(sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1], dtype=object)


@pytest.mark.parametrize(
    "n", list(range(1, 131)) + [210, 255, 385, 420, 1024, 1155, 4620]
)
def test_cyclotomic_matches_sympy(n):
    got = nt.cyclotomic_poly(n)
    want = _sympy_cyclotomic(n)
    assert got.shape == want.shape
    assert all(int(a) == int(b) for a, b in zip(got, want))


def test_cyclotomic_pinned_small():
    assert nt.cyclotomic_poly(1).tolist() == [-1, 1]
    assert nt.cyclotomic_poly(2).tolist() == [1, 1]
    assert nt.cyclotomic_poly(4).tolist() == [1, 0, 1]
    assert nt.cyclotomic_poly(6).tolist() == [1, -1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3000))
def test_cyclotomic_classical_properties(n):
    coeffs = nt.cyclotomic_poly(n)
    c = nt.factorize(n)
    assert coeffs.size == c.phi + 1
    assert int(coeffs[-1]) == 1  # monic
    assert int(coeffs[0]) == 1  # constant term is 1 for every n >= 2
    # self-reciprocal for n >= 2
    assert [int(v) for v in coeffs] == [int(v) for v in coeffs[::-1]]
    # value at 1: p for prime powers, 1 otherwise
    at_one = sum(int(v) for v in coeffs)
    assert at_one == (c.factors[0][0] if c.omega == 1 else 1)


def test_cyclotomic_stride_substitution():
    # Phi_{n}(x) = Phi_{rad}(x^{n/rad}): nonzero coefficients sit on the stride
    for n, stride in [(8, 4), (36, 6), (1008, 24)]:
        coeffs = nt.cyclotomic_poly(n)
        rad = nt.factorize(n).rad
        assert stride == n // rad
        dense = nt.cyclotomic_poly(rad)
        assert all(int(v) == 0 for i, v in enumerate(coeffs) if i % stride)
        assert [int(v) for v in coeffs[::stride]] == [int(v) for v in dense]


# ---------------------------------------------------------------------------
# height


def test_height_anchors():
    assert nt.height(1) == 1
    assert nt.height(2) == 1
    assert nt.height(105) == 2  # smallest conductor with a coefficient of size 2
    assert nt.height(385) == 3
    assert nt.height(1365) == 4


@pytest.mark.parametrize("n", list(range(1, 260)) + [385, 770, 1155, 1365, 2310])
def test_height_equals_max_coefficient(n):
    coeffs = nt.cyclotomic_poly(n)
    assert nt.height(n) == max(abs(int(v)) for v in coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=4))
def test_height_radical_invariance(n, k):
    # multiplying in more powers of existing primes never changes the height
    c = nt.factorize(n)
    lifted = n * (c.factors[0][0] ** k if c.factors else 1)
    assert nt.height(lifted) == nt.height(n)


def _odd_kernel(n):
    rad = nt.factorize(n).rad
    return rad // 2 if rad % 2 == 0 else rad


def test_height_matches_sympy_where_a_series_runs():
    # every n <= 3000 whose odd kernel has three or more primes, and 2n,
    # against sympy's own Phi_n (A(n) and A(2n) come from one series)
    checked = 0
    for n in range(2, 3001):
        if nt.factorize(_odd_kernel(n)).omega < 3:
            continue
        for m in (n, 2 * n):
            assert nt.height(m) == max(abs(int(v)) for v in _sympy_cyclotomic(m)), m
        checked += 1
    assert checked == 413


def _ternary_kernels(s_max):
    # the odd squarefree s = pqr <= s_max
    return [s for s in range(105, s_max + 1, 2)
            if (c := nt.factorize(s)).omega == 3 and c.rad == s]


def _direct_height(primes):
    # the largest |coefficient| of the lower half of Phi_s's own series
    half = math.prod(p - 1 for p in primes) // 2 + 1
    return int(np.abs(nt._radical_series(primes, half)).max())


def test_kaplan_representative_matches_the_direct_series():
    # every ternary kernel s <= 20000: A(s) from the representative pqr'
    # equals the unreduced series' A(s); r' is the least prime above q in
    # r's class +-r (mod pq), so q < r' <= r, r' is coprime to pq, and the
    # representative is its own
    kernels = _ternary_kernels(20000)
    assert len(kernels) == 1796
    for s in kernels:
        p, q, r = (p for p, _ in nt.factorize(s).factors)
        m = p * q
        k = nt.height_kernel(s)
        r2 = k // m
        assert k == m * r2 and q < r2 <= r and nt.is_prime(r2) and math.gcd(r2, m) == 1, s
        assert r2 % m in (r % m, -r % m), s
        assert not any(nt.is_prime(x) for x in range(q + 1, r2)
                       if x % m in (r % m, -r % m)), s
        assert nt.height_kernel(k) == k
        assert nt.height_kernel(4 * p * s) == k
        assert nt.height(s) == _direct_height([p, q, r]), s


def test_kaplan_representative_stays_above_q():
    # r' > q is load-bearing: 137 = 7 and 151 = -3 in their classes, but the
    # least classmates below q, 5*13*7 and 7*11*3, have other heights
    assert nt.height(5 * 13 * 137) == _direct_height([5, 13, 137]) == 3
    assert nt.height(7 * 11 * 151) == _direct_height([7, 11, 151]) == 2
    assert nt.height(5 * 7 * 13) == 2 and nt.height(3 * 7 * 11) == 1
    assert (137 % 65, -151 % 77) == (7, 3)
    assert nt.height_kernel(5 * 13 * 137) == 5 * 13 * 137
    assert nt.height_kernel(7 * 11 * 151) == 7 * 11 * 151


def test_binary_cyclotomic_is_lam_leungs_closed_form():
    # every pair of odd primes with pq <= 5000, in both orders, against the
    # Moebius series of Phi_pq; sympy on every 25th pair
    primes = [p for p in range(3, 1667) if nt.is_prime(p)]
    pairs = [(p, q) for p in primes for q in primes if p < q and p * q <= 5000]
    assert len(pairs) == 980
    for p, q in pairs:
        want = nt.cyclotomic_poly(p * q)
        assert np.array_equal(nt._binary_cyclotomic(p, q), want), (p, q)
        assert np.array_equal(nt._binary_cyclotomic(q, p), want), (q, p)
    for p, q in pairs[::25]:
        assert nt._binary_cyclotomic(p, q).tolist() == _sympy_cyclotomic(p * q).tolist()


def test_ternary_series_matches_the_moebius_series():
    # Kaplan's lemma vs the Moebius product, coefficient for coefficient,
    # over the lower half and the whole of Phi_pqr: every ternary kernel
    # s <= 20000, every order of the primes of s <= 2000, and triples with
    # r below p or q, where the slots r e + m of different terms coincide
    triples = [tuple(p for p, _ in nt.factorize(s).factors) for s in _ternary_kernels(20000)]
    triples += [order for s in _ternary_kernels(2000)
                for order in itertools.permutations(p for p, _ in nt.factorize(s).factors)]
    triples += [(3, 5, 2), (3, 7, 5), (7, 3, 11)]
    for primes in triples:
        phi = math.prod(p - 1 for p in primes)
        for num_terms in (phi // 2 + 1, phi + 1):
            got = nt._ternary_series(primes, num_terms)
            assert got.dtype == np.int64
            assert np.array_equal(got, nt._radical_series(primes, num_terms)), (primes, num_terms)


def test_height_kernel_leaves_other_kernels_odd_and_squarefree():
    # omega(s) != 3: the odd squarefree kernel itself
    for n in (1, 2, 8, 9, 18, 45, 90, 2 * 3**2 * 5 * 7 * 11, 15015, 4 * 15015):
        c = nt.factorize(n)
        odd = [p for p, _ in c.factors if p != 2]
        assert len(odd) != 3 and nt.height_kernel(n) == math.prod(odd), n


# ---------------------------------------------------------------------------
# exact fallback machinery


def _series_terms(rad, num_terms):
    # (e, mu(rad / e)) for the divisors e < num_terms of squarefree rad,
    # largest first, as _radical_series builds them
    primes = [p for p, _ in nt.factorize(rad).factors]
    k = len(primes)
    terms = []
    for bits in range(1 << k):
        e = 1
        pop = 0
        for i in range(k):
            if bits >> i & 1:
                e *= primes[i]
                pop += 1
        if e >= num_terms:
            continue
        terms.append((e, -1 if (k - pop) % 2 else 1))
    terms.sort(reverse=True)
    return terms


def _python_factor(a, e, mu):
    # a(x) (1 - x^e)^mu, truncated, on a list of Python ints
    if mu > 0:
        return [a[i] - (a[i - e] if i >= e else 0) for i in range(len(a))]
    a = list(a)
    for i in range(e, len(a)):
        a[i] += a[i - e]
    return a


def _python_series(terms, num_terms):
    # prod (1 - x^e)^mu mod x^num_terms
    a = [1] + [0] * (num_terms - 1)
    for e, mu in terms:
        a = _python_factor(a, e, mu)
    return a


def _int64_trip(terms, num_terms, cap):
    # the index of the first factor the int64 run must not apply: the one
    # whose growth (2 for a product, the ceil(num_terms / e) rows of a
    # division) could take the largest magnitude so far past cap
    a = [1] + [0] * (num_terms - 1)
    for j, (e, mu) in enumerate(terms):
        growth = 2 if mu > 0 else -(-num_terms // e)
        if max(map(abs, a)) > cap // growth:
            return j
        a = _python_factor(a, e, mu)
    return None


@pytest.mark.parametrize("promote", [False, True])
@pytest.mark.parametrize("terms,num_terms", [
    (_series_terms(1155, 481), 481),
    (_series_terms(15015, 2881), 2881),
    ([(1, -1), (1, -1), (3, -1), (40, 1), (70, -1), (2, 1)], 100),
    ([(99, -1), (33, -1), (1, 1), (1, -1)], 100),
])
def test_series_run_matches_python_ints(terms, num_terms, promote, monkeypatch):
    # both division paths: the row loop (few long rows) and the cumsum
    loops = {-(-num_terms // e) < nt._CUMSUM_MIN_ROWS <= e for e, mu in terms if mu < 0}
    assert loops == {True, False}
    if promote:
        # a cap small enough that the run turns object part-way through
        monkeypatch.setattr(nt, "_INT64_CAP", 128)
        assert 0 < _int64_trip(terms, num_terms, 128) < len(terms)
    got = nt._series_run(terms, num_terms)
    assert got.dtype == (object if promote else np.int64)
    assert [int(v) for v in got] == _python_series(terms, num_terms)


def test_series_paths_agree(monkeypatch):
    # the int64 series vs one run object from its first factor
    for rad in (15, 105, 255, 385):
        c = nt.factorize(rad)
        num_terms = c.phi + 1
        fast = nt._radical_series([p for p, _ in c.factors], num_terms)
        assert fast.dtype == np.int64
        with monkeypatch.context() as m:
            m.setattr(nt, "_INT64_CAP", 1)
            slow = nt._series_run(_series_terms(rad, num_terms), num_terms)
        assert slow.dtype == object
        assert [int(a) for a in fast] == [int(b) for b in slow]


def test_overflow_fallback_still_exact(monkeypatch):
    # patch the int64 guard's cap so that it trips in the second half of
    # the series of 15015 = 3*5*7*11*13, at exactly the factor where the
    # largest magnitude could first pass the cap: the run turns object there
    # and carries on exactly, in the full Phi_15015 and in the lower half
    # behind A(n)
    rad = 15015
    primes = (3, 5, 7, 11, 13)
    full = nt.factorize(rad).phi + 1
    half = full // 2 + 1
    want = _sympy_cyclotomic(rad)
    want_height = max(abs(int(v)) for v in want)
    for cap in (1 << 8, 1 << 12, 1 << 16):
        monkeypatch.setattr(nt, "_INT64_CAP", cap)
        for num_terms in (full, half):
            terms = _series_terms(rad, num_terms)
            trip = _int64_trip(terms, num_terms, cap)
            assert len(terms) // 2 <= trip < len(terms)
            assert nt._series_run(terms[:trip], num_terms).dtype == np.int64
            got = nt._series_run(terms[:trip + 1], num_terms)
            assert got.dtype == object
            assert [int(v) for v in got] == _python_series(terms[:trip + 1], num_terms)
        got = nt.cyclotomic_poly(rad)
        assert got.dtype == object
        assert [int(a) for a in got] == [int(b) for b in want]
        assert nt.height(rad) == nt.height(2 * rad) == want_height
        assert nt._radical_series(primes, half).dtype == object
