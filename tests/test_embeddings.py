"""Embedding matrices: roots of unity, Vandermonde assembly over the three
bases, quadratic blocks, and the materialization cap.

The factored condition numbers are checked against the dense reference and
against an oracle that shares no code with ringcond: sympy's cyclotomic
coefficients, mpmath roots and fixed-point integer arithmetic."""
import functools
import itertools
import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy

from ringcond import cli, embeddings, linalg
from ringcond.embeddings import (
    Basis,
    EmbeddingSpec,
    cyclotomic_vandermonde,
    embedding_matrix,
    factored_cond,
    numeric_cond,
    primitive_roots_of_unity,
    quadratic_block,
)
from ringcond.formulas import cond_exact_twisted, cond_quadratic
from ringcond.numtheory import cyclotomic_poly, factorize, first_primes, is_prime


# ---------------------------------------------------------------------------
# primitive roots


def test_primitive_roots_reject_trivial_conductor():
    with pytest.raises(ValueError):
        primitive_roots_of_unity(1)
    # the kernel of 1 is 1 too, and a twisted spec of 1 has no prime-power
    # parts, so the spec itself refuses n = 1 before any evaluator runs
    for real in linalg.PRECISIONS.values():
        for basis in (Basis.POWER, Basis.TWISTED):
            with pytest.raises(ValueError, match="n >= 2"):
                factored_cond(EmbeddingSpec(1, basis=basis), real=real)


@pytest.mark.parametrize("n", [2, 3, 4, 12, 36, 105, 256])
def test_primitive_roots_count_and_unit_modulus(n):
    roots = primitive_roots_of_unity(n)
    c = factorize(n)
    assert roots.shape == (c.phi,)
    assert np.allclose(np.abs(roots), 1.0, atol=1e-14)
    # each root has exact multiplicative order n: it kills Phi_n numerically
    coeffs = cyclotomic_poly(n).astype(np.complex128)
    vals = np.polyval(coeffs[::-1], roots)
    assert np.max(np.abs(vals)) < 1e-10 * max(1.0, np.abs(coeffs).sum())


def test_primitive_roots_pinned_4():
    roots = primitive_roots_of_unity(4)
    assert np.allclose(roots, [1j, -1j], atol=1e-15)


def test_primitive_roots_are_distinct():
    roots = primitive_roots_of_unity(360)
    d = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
    assert d.min() > 1e-3


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
def test_primitive_roots_are_bitwise_the_direct_angles(real):
    # the numeric columns of `cond` are pinned byte for byte, and every root
    # they read must stay cos + i sin of the angle 2 pi k / n computed as here
    two_pi = embeddings._two_pi(real)
    for n in [*range(2, 3001, 7), 1155, 2310, 2999, 3000]:
        ks = np.array([k for k in range(1, n) if math.gcd(k, n) == 1])
        theta = two_pi * ks.astype(real) / real(n)
        got = primitive_roots_of_unity(n, real=real)
        assert got.dtype == np.promote_types(real, np.complex128)
        assert np.array_equal(got.real, np.cos(theta)), n
        assert np.array_equal(got.imag, np.sin(theta)), n


# ---------------------------------------------------------------------------
# matrices


def test_cyclotomic_vandermonde_pinned_4():
    v = cyclotomic_vandermonde(4)
    assert np.allclose(v, [[1, 1j], [1, -1j]], atol=1e-15)


def test_cyclotomic_vandermonde_rows_evaluate_powers():
    v = cyclotomic_vandermonde(7)
    roots = primitive_roots_of_unity(7)
    for j in range(6):
        assert np.allclose(v[:, j], roots**j, atol=1e-13)


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1155, 3072])
def test_cyclotomic_vandermonde_entries_match_mpmath(n, real):
    # entry (i, j) is one root at the exact exponent k_i j mod n, so it stays
    # within a few eps of exp(2 pi i k_i j / n) in every column; powers built
    # column by column drift by about j eps
    v = cyclotomic_vandermonde(n, real=real)
    ks = [k for k in range(1, n) if math.gcd(k, n) == 1]
    rng = np.random.default_rng(n)
    worst = mpmath.mpf(0)
    with mpmath.workprec(200):
        for i, j in rng.integers(len(ks), size=(300, 2)).tolist():
            want = mpmath.expjpi(mpmath.mpf(2 * ks[i] * j) / n)
            worst = max(worst, abs(mpmath.mpc(_mp(v[i, j].real), _mp(v[i, j].imag)) - want))
    eps = float(np.finfo(real).eps)
    assert worst <= 8 * eps, float(worst) / eps


def test_twisted_vandermonde_kron_of_prime_power_parts():
    # n = 12: parts 4 and 3 in ascending prime order
    t = embedding_matrix(EmbeddingSpec(12, basis=Basis.TWISTED))
    want = np.kron(cyclotomic_vandermonde(4), cyclotomic_vandermonde(3))
    assert t.shape == (4, 4)
    assert np.allclose(t, want, atol=1e-14)


def test_twisted_equals_power_for_prime_powers():
    for n in (9, 16, 25):
        assert np.allclose(
            embedding_matrix(EmbeddingSpec(n, basis=Basis.TWISTED)),
            cyclotomic_vandermonde(n), atol=1e-14
        )
    # a prime power's one twisted factor is the conductor itself, so the
    # twisted condition number is the power one to the last bit; cond relies
    # on that for its numeric_twisted column
    cap = embeddings.MAX_DIMENSION
    powers = [q for p in filter(is_prime, range(2, cap + 2))
              for q in itertools.takewhile(lambda q: factorize(q).phi <= cap,
                                           (p**e for e in itertools.count(1)))]
    assert len(powers) == 605
    for real in (np.float64, np.longdouble):
        cond = embeddings.FactoredCond(real=real)
        for n in powers:
            power, twisted = cond(EmbeddingSpec(n)), cond(EmbeddingSpec(n, basis=Basis.TWISTED))
            assert twisted == power and type(twisted) is type(power) is real, n


@pytest.mark.parametrize(
    "p,want",
    [
        (2, [[1, math.sqrt(2)], [1, -math.sqrt(2)]]),
        (3, [[1, math.sqrt(3)], [1, -math.sqrt(3)]]),
        (5, [[1, (1 + math.sqrt(5)) / 2], [1, (1 - math.sqrt(5)) / 2]]),
        (13, [[1, (1 + math.sqrt(13)) / 2], [1, (1 - math.sqrt(13)) / 2]]),
    ],
)
def test_quadratic_block_by_residue_class(p, want):
    assert np.allclose(quadratic_block(p), want, atol=1e-15)


def test_quadratic_block_rejects_composite():
    with pytest.raises(ValueError):
        quadratic_block(9)


# ---------------------------------------------------------------------------
# EmbeddingSpec


def test_spec_validation():
    s = EmbeddingSpec(12)
    assert s.basis == Basis.POWER and s.dimension == 4
    s = EmbeddingSpec(12, (5, 7), Basis.TWISTED)
    assert s.dimension == 16
    with pytest.raises(ValueError, match="distinct"):
        EmbeddingSpec(12, (5, 5), Basis.TWISTED)
    with pytest.raises(ValueError, match="prime"):
        EmbeddingSpec(12, (15,), Basis.TWISTED)
    with pytest.raises(ValueError, match="divides the conductor"):
        EmbeddingSpec(12, (3,), Basis.TWISTED)
    with pytest.raises(ValueError, match="hybrid basis requires"):
        EmbeddingSpec(12, (), Basis.HYBRID)
    with pytest.raises(ValueError, match="power basis takes no"):
        EmbeddingSpec(12, (5,), Basis.POWER)


def test_spec_basis_is_coerced_or_rejected():
    # a member's value names the member; anything else is refused, never
    # silently read as the power basis
    assert EmbeddingSpec(15, basis="twisted").basis is Basis.TWISTED
    assert factored_cond(EmbeddingSpec(15, basis="twisted")) == \
        factored_cond(EmbeddingSpec(15, basis=Basis.TWISTED))
    with pytest.raises(ValueError, match="power basis takes no"):
        EmbeddingSpec(15, (7,), basis="power")
    for bad in (None, "Twisted", Basis.TWISTED.name, 1):
        with pytest.raises(ValueError):
            EmbeddingSpec(15, (7,), basis=bad)


def test_non_integral_inputs_are_rejected_not_truncated():
    with pytest.raises(TypeError):
        EmbeddingSpec(5, (3.7,), Basis.TWISTED)
    with pytest.raises(TypeError):
        quadratic_block(5.9)
    # numpy integers are integral and still accepted
    assert EmbeddingSpec(5, (np.int64(3),), Basis.TWISTED).quad_primes == (3,)
    assert np.array_equal(quadratic_block(np.int32(5)), quadratic_block(5))


@pytest.mark.parametrize("real", [np.float32, np.float16, float, np.dtype(np.float64),
                                  np.clongdouble])
def test_builders_reject_real_dtypes_outside_precisions(real):
    # float32 once gave factored_cond(173) = 242.5394 against 242.5407
    builders = [
        lambda: primitive_roots_of_unity(7, real=real),
        lambda: cyclotomic_vandermonde(7, real=real),
        lambda: quadratic_block(5, real=real),
        lambda: embedding_matrix(EmbeddingSpec(12, (5,), Basis.TWISTED), real=real),
        lambda: numeric_cond(EmbeddingSpec(173), real=real),
        lambda: factored_cond(EmbeddingSpec(173), real=real),
        # kernel 1: no Vandermonde is built, the guard must still run
        lambda: factored_cond(EmbeddingSpec(16), real=real),
        lambda: factored_cond(EmbeddingSpec(105, basis=Basis.TWISTED), real=real),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="np.float64, np.longdouble"):
            build()


def test_spec_coerces_conductor():
    s = EmbeddingSpec(36)
    assert s.conductor.phi == 12 and s.conductor.rad == 6


# ---------------------------------------------------------------------------
# embedding_matrix / numeric_cond


def test_embedding_matrix_tensors_quadratic_blocks():
    spec = EmbeddingSpec(5, (2, 3), Basis.TWISTED)
    m = embedding_matrix(spec)
    want = np.kron(
        np.kron(cyclotomic_vandermonde(5), quadratic_block(2)),
        quadratic_block(3),
    )
    assert m.shape == (16, 16)
    assert np.allclose(m, want, atol=1e-13)


def test_hybrid_uses_power_basis_cyclotomic_part():
    spec = EmbeddingSpec(12, (5,), Basis.HYBRID)
    m = embedding_matrix(spec)
    want = np.kron(cyclotomic_vandermonde(12), quadratic_block(5))
    assert np.allclose(m, want, atol=1e-13)


def test_cap_refuses_large_dimensions():
    spec = EmbeddingSpec(2**13 * 2)  # phi = 8192 > MAX_DIMENSION = 4096
    with pytest.raises(ValueError, match="exceeds the materialization cap"):
        embedding_matrix(spec)
    assert embedding_matrix(EmbeddingSpec(2**5)).shape == (16, 16)
    # 4099 is prime: the twisted matrix is V_4099, of dimension 4098
    with pytest.raises(ValueError, match="dimension 4098 exceeds the materialization cap"):
        embedding_matrix(EmbeddingSpec(4099, basis=Basis.TWISTED))


def test_vandermonde_builders_refuse_dimensions_past_the_cap():
    # 4099 is prime, so phi = 4098 > MAX_DIMENSION; refused before allocation
    for build in (cyclotomic_vandermonde, embeddings.cyclotomic_vandermonde_inverse):
        with pytest.raises(ValueError, match="dimension 4098 exceeds the cap 4096"):
            build(4099)


def test_numeric_cond_anchors():
    # power-of-two conductor: cond(V) = phi(n) exactly
    assert numeric_cond(EmbeddingSpec(16)) == pytest.approx(8.0, rel=1e-12)
    # prime: phi * sqrt(2 (1 - 1/p))
    assert numeric_cond(EmbeddingSpec(3)) == pytest.approx(
        2 * math.sqrt(2 * (1 - 1 / 3)), rel=1e-12
    )
    # quadratic blocks multiply in
    got = numeric_cond(EmbeddingSpec(4, (3,), Basis.HYBRID))
    want = 2.0 * (math.sqrt(3) + 1 / math.sqrt(3))
    assert got == pytest.approx(want, rel=1e-12)


def test_numeric_cond_twisted_multiplicative():
    got = numeric_cond(EmbeddingSpec(36, basis=Basis.TWISTED))
    want = numeric_cond(EmbeddingSpec(4)) * numeric_cond(EmbeddingSpec(9))
    assert got == pytest.approx(want, rel=1e-11)


def test_extended_precision_dtype_flows_through():
    m = embedding_matrix(EmbeddingSpec(12, (5,), Basis.TWISTED), real=np.longdouble)
    assert m.dtype == np.clongdouble
    assert embedding_matrix(EmbeddingSpec(12, (5,), Basis.TWISTED)).dtype == np.complex128
    v = numeric_cond(EmbeddingSpec(16), real=np.longdouble)
    assert type(v) is np.longdouble
    assert float(v) == pytest.approx(8.0, rel=1e-15)
    for real in linalg.PRECISIONS.values():
        assert type(factored_cond(EmbeddingSpec(1024), real=real)) is real


# ---------------------------------------------------------------------------
# factored_cond against the dense reference


def _spec_of_kind(n, kind):
    c = factorize(n)
    q, = first_primes(1, exclude=[p for p, _ in c.factors])
    return {
        "power": lambda: EmbeddingSpec(c),
        "twisted": lambda: EmbeddingSpec(c, basis=Basis.TWISTED),
        "twisted+q": lambda: EmbeddingSpec(c, (q,), Basis.TWISTED),
        "hybrid": lambda: EmbeddingSpec(c, (q,), Basis.HYBRID),
    }[kind]()


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("kind", ["power", "twisted", "twisted+q", "hybrid"])
def test_factored_cond_matches_dense(precision, kind):
    real = linalg.PRECISIONS[precision]
    checked = 0
    for n in range(2, 301):
        spec = _spec_of_kind(n, kind)
        if spec.dimension > 512:
            continue
        fac, dense = factored_cond(spec, real=real), numeric_cond(spec, real=real)
        assert type(fac) is type(dense) is real
        rel = float(abs(fac - dense) / dense)
        assert rel <= 1e-12, (n, spec.quad_primes, fac, dense, rel)
        checked += 1
    assert checked >= 240


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_factored_cond_inverts_no_matrix(monkeypatch, precision):
    real = linalg.PRECISIONS[precision]
    want = {}
    for n in (2, 12, 105, 173):
        for kind in ("twisted+q", "hybrid"):
            want[n, kind] = numeric_cond(_spec_of_kind(n, kind), real=real)

    def refuse(a):
        raise AssertionError("factored_cond reached linalg.invert")

    monkeypatch.setattr(linalg, "invert", refuse)
    for (n, kind), dense in want.items():
        fac = factored_cond(_spec_of_kind(n, kind), real=real)
        assert type(fac) is real and float(abs(fac - dense) / dense) <= 1e-12
    assert factored_cond(EmbeddingSpec(105, (2, 11, 13), Basis.TWISTED), real=real) > 0
    # kappa_F(B) = ||B||_F^2 / |det B| against the exact closed form, over
    # both residue classes mod 4
    eps = mpmath.mpf(float(np.finfo(real).eps))
    primes = first_primes(60)
    assert {p % 4 for p in primes} == {1, 2, 3}
    with mpmath.workdps(50):
        for p in primes:
            sym = cond_quadratic(p).symbolic
            exact = mpmath.mpf(sym.coeff.numerator) / sym.coeff.denominator * mpmath.sqrt(
                mpmath.mpf(sym.radicand.numerator) / sym.radicand.denominator)
            got = embeddings._quadratic_cond(p, real=real)
            assert type(got) is real
            assert abs(_mp(got) - exact) / exact <= 4 * eps, (p, got)


def test_factored_cond_mixed_precision_in_two_threads():
    # the precision travels with each call, so double and extended sweeps can
    # interleave in one process and each still gets its own sequential values
    specs = [_spec_of_kind(n, kind) for n in range(2, 301, 7)
             for kind in ("power", "twisted+q")]
    reals = (np.float64, np.longdouble)
    want = {real: [factored_cond(s, real=real) for s in specs] for real in reals}
    got = {}
    start = threading.Barrier(len(reals))

    def sweep(real):
        start.wait()
        got[real] = [factored_cond(s, real=real) for s in specs]

    threads = [threading.Thread(target=sweep, args=(real,)) for real in reals]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for real in reals:
        assert [type(v) for v in got[real]] == [real] * len(specs)
        assert got[real] == want[real]


@pytest.mark.parametrize("n,basis", [(3003, Basis.POWER), (3003, Basis.TWISTED),
                                     (8192, Basis.POWER), (2310, Basis.POWER),
                                     (1632, Basis.POWER)])
def test_factored_cond_matches_dense_at_large_dimension(n, basis):
    # phi(3003) = 1440; phi(8192) = 4096 is the largest dimension the dense
    # reference accepts, and there the twisted matrix is the power matrix;
    # 2310 = 2 * 1155 and 1632 = 2^5 * 3 * 17 reduce to the kernels 1155 and 51
    spec = EmbeddingSpec(n, basis=basis)
    fac, dense = factored_cond(spec), numeric_cond(spec)
    assert float(abs(fac - dense) / dense) <= 1e-12


def test_factored_cond_twisted_beyond_materialization_cap():
    # phi = 92160, far past the dense cap; the largest factor has dimension 16
    n = 3 * 5 * 7 * 11 * 13 * 17
    spec = EmbeddingSpec(n, basis=Basis.TWISTED)
    with pytest.raises(ValueError, match="cap"):
        embedding_matrix(spec)
    assert factored_cond(spec) == pytest.approx(cond_exact_twisted(n).value, rel=1e-9)
    with pytest.raises(ValueError, match="exceeds the cap"):
        factored_cond(EmbeddingSpec(2**14))  # one Vandermonde factor of dimension 8192


@pytest.mark.parametrize("precision", sorted(linalg.PRECISIONS))
def test_sweep_evaluator_matches_fresh_calls(precision):
    # one evaluator across every n <= 2310 with phi <= 512, both bases, as a
    # cond sweep shares it: kernel norms computed for earlier conductors must
    # give each value bitwise, and in the same dtype, as a fresh call does
    real = linalg.PRECISIONS[precision]
    cond = embeddings.FactoredCond(real=real)
    conductors = [c for c in map(factorize, range(2, 2311)) if c.phi <= 512]
    for c in conductors:
        for basis in (Basis.POWER, Basis.TWISTED):
            spec = EmbeddingSpec(c, basis=basis)
            got, want = cond(spec), factored_cond(spec, real=real)
            assert got == want and type(got) is type(want), (c.n, basis)
    kernels = {math.prod(p for p, _ in c.factors if p != 2) for c in conductors}
    assert len(cond._norms) == len(kernels - {1})


# ---------------------------------------------------------------------------
# the exact cyclotomic path of factored_cond against an independent oracle

_ORACLE_BITS = 200  # fixed-point scale: about 60 significant digits


@functools.lru_cache(maxsize=None)
def _oracle_power_cond(n):
    """phi * ||V^-1||_F for the primitive n-th roots, to about 50 digits.

    Column j of V^-1 is Q_j / Q_j(z_j) with Q_j = Phi_n / (x - z_j): the O(phi)
    synthetic division and Horner run on scaled Python integers, the roots
    come from mpmath at 70 digits, and the coefficients from sympy.  Conjugate
    roots give conjugate columns, so only the upper half-plane is summed.
    """
    x = sympy.symbols("x")
    one = 1 << _ORACLE_BITS
    c = [int(v) * one for v in sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]]
    phi = len(c) - 1
    total = mpmath.mpf(0)
    with mpmath.workdps(70):
        for k in range(1, (n + 1) // 2):
            if math.gcd(k, n) != 1:
                continue
            z = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            zr, zi = int(mpmath.nint(z.real * one)), int(mpmath.nint(z.imag * one))
            a, b = one, 0
            quotient = [(a, b)]
            for i in range(phi - 1, 0, -1):
                a, b = (c[i] + ((zr * a - zi * b) >> _ORACLE_BITS),
                        (zr * b + zi * a) >> _ORACLE_BITS)
                quotient.append((a, b))
            da, db = 0, 0
            for a, b in quotient:
                da, db = (a + ((zr * da - zi * db) >> _ORACLE_BITS),
                          b + ((zr * db + zi * da) >> _ORACLE_BITS))
            norm2 = sum(a * a + b * b for a, b in quotient)
            total += 2 * mpmath.mpf(norm2) / mpmath.mpf(da * da + db * db)
        return phi * mpmath.sqrt(total)


def _mp(v):
    # exact for float64 and for the 64-bit significand of longdouble
    hi = float(v)
    return mpmath.mpf(hi) + mpmath.mpf(float(v - type(v)(hi)))


@pytest.mark.parametrize("precision,tol", [("double", 1e-14), ("extended", 2e-16)])
@pytest.mark.parametrize("n", [173, 359, 603, 718, 742, 1024, 1155, 1416, 1632, 3003])
def test_factored_cond_matches_mpmath_oracle(n, precision, tol):
    got = factored_cond(EmbeddingSpec(n), real=linalg.PRECISIONS[precision])
    want = _oracle_power_cond(n)
    with mpmath.workdps(50):
        rel = abs(_mp(got) - want) / want
    assert rel <= tol, (n, precision, float(rel))


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [2, 3, 4, 12, 36, 105, 173, 360, 1155])
def test_cyclotomic_derivative_matches_root_products(n, real):
    c = factorize(n)
    roots = primitive_roots_of_unity(c, real=real)
    got = embeddings._cyclotomic_derivative(c, real=real)
    want = np.array([np.prod(z - np.delete(roots, j)) for j, z in enumerate(roots)])
    assert got.dtype == roots.dtype
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


# ---------------------------------------------------------------------------
# the Parseval norm of factored_cond against the explicit Lagrange inverse
# and against exact values


def _half_lagrange_norm(s, real):
    # ||W||_F from the columns of the explicit inverse at the roots k < s/2
    c = factorize(s)
    w = embeddings.cyclotomic_vandermonde_inverse(c, real=real)
    return linalg.frobenius(w[:, :c.phi // 2])


@pytest.mark.parametrize("precision,tol", [("double", 1e-14), ("extended", 1e-17)])
def test_parseval_norm_matches_lagrange_inverse(precision, tol):
    # every odd squarefree kernel with phi(s) <= 512: below 15015 (omega 5)
    # s / phi(s) is at most 1155 / 480 < 3
    real = linalg.PRECISIONS[precision]
    kernels = [c for c in map(factorize, range(3, 3 * 512, 2))
               if c.n == c.rad and c.phi <= 512]
    assert len(kernels) == 257
    for k in kernels:
        got = np.sqrt(embeddings._half_inverse_norm2(k, real))
        want = _half_lagrange_norm(k.n, real)
        assert type(got) is real
        assert abs(got - want) <= tol * want, (k.n, float(abs(got - want) / want))


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
def test_chord_table_is_symmetric(real):
    # the Parseval gather reads the chord table at the signed offset k_j - k,
    # so entry -r (numpy's s - r) must be entry r to the last bit; s covers
    # omega = 1 to 5
    for s in (3, 15, 105, 1155, 8715, 15015):
        c = embeddings._chord(np.arange(s), s, real)
        assert c.dtype == real
        assert np.array_equal(c[1:], c[:0:-1]), s


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
def test_parseval_norm_of_a_prime_kernel(real):
    # each column of V_p^-1 has squared norm 2/p, so ||W_p||^2 = (p - 1)/p;
    # the general sum gives that quotient to the last bit, which is what lets
    # FactoredCond take it for every prime kernel without summing
    for p in filter(is_prime, range(3, 4100, 2)):
        got = embeddings._half_inverse_norm2(factorize(p), real)
        assert got == real(p - 1) / real(p) and type(got) is real, p


@pytest.mark.parametrize("precision", sorted(linalg.PRECISIONS))
def test_factored_cond_sums_no_prime_kernel(precision, tmp_path, monkeypatch):
    # only a composite odd kernel runs the Parseval sum: every twisted factor
    # and every power of p or 2p takes (p - 1)/p, bitwise what the sum gives
    real = linalg.PRECISIONS[precision]
    parseval = embeddings._half_inverse_norm2
    summed = []

    def spy(k, real):
        summed.append(k.n)
        return parseval(k, real)

    specs = [EmbeddingSpec(1155, basis=Basis.TWISTED),
             EmbeddingSpec(2 * 3**2 * 5 * 7, basis=Basis.TWISTED),
             EmbeddingSpec(105, (2, 11), Basis.TWISTED)]
    powers = [(n, p) for p in (3, 5, 7, 17, 257, 2053) for n in (p, p**2, 2 * p, 4 * p**2)
              if factorize(n).phi <= embeddings.MAX_DIMENSION]
    specs += [EmbeddingSpec(n) for n, _ in powers]
    fresh = [factored_cond(spec, real=real) for spec in specs]
    monkeypatch.setattr(embeddings, "_half_inverse_norm2", spy)
    cond = embeddings.FactoredCond(real=real)
    for spec, want in zip(specs, fresh):
        got = cond(spec)
        assert got == want and type(got) is type(want), spec
    assert summed == []
    for n, p in powers:
        # the value the general sum gives for the kernel p
        norm = np.sqrt(parseval(factorize(p), real))
        want = real(n // factorize(n).rad * (p - 1)) * np.sqrt(real(2)) * norm
        assert cond(EmbeddingSpec(n)) == want, n
    # cond 2..2000 sums the 161 composite kernels of its 257, and no prime
    out = tmp_path / "cond.csv"
    assert cli.main(["--precision", precision, "cond", "--min", "2", "--max", "2000",
                     "--out", str(out)]) == 0
    assert len(summed) == len(set(summed)) == 161
    assert all(not is_prime(s) for s in summed)


@pytest.mark.parametrize("precision,tol", [("double", 2e-15), ("extended", 1e-18)])
@pytest.mark.parametrize("s,N", [(7, 12), (15, 36), (105, 1160), (165, 2592), (231, 4544)])
def test_parseval_norm_matches_exact_gram_trace(s, N, precision, tol):
    # N = s Tr(G_s^-1) for the Gram matrix G_s = V_s^* V_s, from exact
    # Fraction Gauss-Jordan; kappa_F(V_s)^2 = phi^2 Tr(G_s^-1) =
    # 2 phi^2 ||W||^2, so ||W||^2 = N / (2s)
    real = linalg.PRECISIONS[precision]
    got = embeddings._half_inverse_norm2(factorize(s), real)
    want = real(N) / real(2 * s)
    assert abs(got - want) <= tol * want, (s, float(abs(got - want) / want))


def test_parseval_norm_scratch_memory_is_bounded():
    # s = 8715 (phi 3936) has the largest (non-primitive root x column)
    # block under MAX_DIMENSION, 4779 x 1968 entries: 72 MiB at double in one
    # piece, so only the chunking keeps the traced peak low
    norms = {}
    for real in (np.float64, np.longdouble):
        cond = embeddings.FactoredCond(real=real)
        tracemalloc.start()
        try:
            cond(EmbeddingSpec(8715))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, (real, peak)
        norms[real] = cond._norms[8715]
    want = _half_lagrange_norm(8715, np.float64)
    assert abs(norms[np.float64] - want) <= 1e-13 * want


def test_exact_cast_refuses_to_round():
    big = np.array([1, 0, 2**60 + 1, 1], dtype=object)
    with pytest.raises(ValueError, match="np.float64 exactly"):
        embeddings._exact_cast(big, np.float64)
    # the 64-bit longdouble significand holds 2^60 + 1, but not 2^70 + 1
    assert embeddings._exact_cast(big, np.longdouble)[2] == np.longdouble(2**60 + 1)
    with pytest.raises(ValueError, match="np.longdouble exactly"):
        embeddings._exact_cast(np.array([1, 2**70 + 1], dtype=object), np.longdouble)
    ints = cyclotomic_poly(105)
    assert np.array_equal(embeddings._exact_cast(ints, np.float64), ints)
