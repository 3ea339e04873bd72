"""Matrix kernel: precision carried by the dtype, exact compensated products,
inversion paths, and the residual of the explicit Lagrange inverse of the
cyclotomic Vandermonde against the dense condition number.

mpmath at 200 bits is the oracle for anything the double/extended paths must
approximate.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ringcond import linalg
from ringcond.embeddings import cyclotomic_vandermonde, cyclotomic_vandermonde_inverse


@pytest.fixture(autouse=True)
def _oracle_precision():
    old = mpmath.mp.prec
    mpmath.mp.prec = 220  # the oracle must out-resolve everything under test
    yield
    mpmath.mp.prec = old


def _mp_matrix(a):
    """numpy complex matrix -> exact mpmath matrix (doubles embed exactly; a
    clongdouble entry is the sum of its nearest double and a double rest)."""
    n, m = a.shape
    out = mpmath.matrix(n, m)
    for i in range(n):
        for j in range(m):
            hi = complex(np.complex128(a[i, j]))
            lo = complex(a[i, j] - np.complex128(hi))
            out[i, j] = mpmath.mpc(hi.real, hi.imag) + mpmath.mpc(lo.real, lo.imag)
    return out


def _mp_norm(m):
    return float(mpmath.sqrt(sum(abs(v) ** 2 for v in m)))


def _rand_complex(n, rng_seed=7):
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _vandermonde(roots):
    """Row i = (1, r_i, r_i^2, ...) on any complex roots, column j as
    column j - 1 times the roots."""
    v = np.empty((roots.size, roots.size), dtype=roots.dtype)
    v[:, 0] = 1
    for j in range(1, roots.size):
        v[:, j] = v[:, j - 1] * roots
    return v


# ---------------------------------------------------------------------------
# frobenius / Kronecker products


def test_frobenius_known_values():
    assert linalg.frobenius(np.eye(4)) == pytest.approx(2.0)
    a = np.array([[3.0, 4.0]])
    assert linalg.frobenius(a) == pytest.approx(5.0)
    z = np.array([[3 + 4j]])
    assert linalg.frobenius(z) == pytest.approx(5.0)


def test_frobenius_multiplicative_under_kron():
    a = _rand_complex(5, 1)
    b = _rand_complex(3, 2)
    k = np.kron(a, b)
    assert k.shape == (15, 15)
    assert linalg.frobenius(k) == pytest.approx(
        linalg.frobenius(a) * linalg.frobenius(b), rel=1e-13
    )


def test_kronecker_block_structure():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 5], [6, 7]])
    k = np.kron(a, b)
    assert np.array_equal(k[:2, 2:], 2 * b)
    assert np.array_equal(k[2:, :2], 3 * b)


def test_condition_number_multiplicative_under_kron():
    a = _rand_complex(4, 3)
    b = _rand_complex(5, 4)
    got = linalg.condition_number(np.kron(a, b))
    want = linalg.condition_number(a) * linalg.condition_number(b)
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# exact compensated gemm


@pytest.mark.parametrize("n", [2, 5, 12, 33])
def test_gemm_exact_dd_matches_mpmath(n):
    a = _rand_complex(n, 11).astype(np.complex128)
    b = _rand_complex(n, 12).astype(np.complex128)
    hi, lo = linalg._gemm_exact_dd(a, b)
    want = _mp_matrix(a) * _mp_matrix(b)
    err = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            got = mpmath.mpc(float(hi[i, j].real), float(hi[i, j].imag)) + mpmath.mpc(
                float(lo[i, j].real), float(lo[i, j].imag)
            )
            err[i, j] = got - want[i, j]
    assert _mp_norm(err) <= 2.0**-95 * _mp_norm(want)


def test_gemm_exact_dd_extreme_scales():
    # row/column scaling spans ~2^80: the chunking must stay exact per entry
    a = _rand_complex(6, 13).astype(np.complex128)
    b = _rand_complex(6, 14).astype(np.complex128)
    a *= np.exp2(np.linspace(-40, 40, 6))[:, None]
    b *= np.exp2(np.linspace(35, -35, 6))[None, :]
    hi, lo = linalg._gemm_exact_dd(a, b)
    want = _mp_matrix(a) * _mp_matrix(b)
    for i in range(6):
        for j in range(6):
            got = mpmath.mpc(float(hi[i, j].real), float(hi[i, j].imag)) + mpmath.mpc(
                float(lo[i, j].real), float(lo[i, j].imag)
            )
            mag = abs(want[i, j])
            if mag:
                assert abs(got - want[i, j]) / mag <= 2.0**-88


@pytest.mark.parametrize("n", [2, 128, 1024])
def test_gemm_exact_dd_holds_sums_without_cancellation(n):
    # parts in [0.5, 1), b's imaginary parts negated: all 2n chunk products
    # of a real part add, the widest sum a chunk gemm must hold exactly; at
    # n = 1024 the width rule 2t - 1 + log2(kn) <= 53 is met with equality
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 1, (n, n)) + 1j * rng.uniform(0.5, 1, (n, n))
    b = rng.uniform(0.5, 1, (n, n)) - 1j * rng.uniform(0.5, 1, (n, n))
    hi, lo = linalg._gemm_exact_dd(a, b)
    for i, j in rng.integers(0, n, (8, 2)):
        want = sum(Fraction(x.real) * Fraction(y.real) - Fraction(x.imag) * Fraction(y.imag)
                   for x, y in zip(a[i], b[:, j]))
        got = Fraction(hi[i, j].real) + Fraction(lo[i, j].real)
        assert abs(got - want) <= Fraction(2) ** -95 * want


def test_gemm_exact_dd_holds_full_anti_diagonals():
    # every part is c_0 2^-22 + c_1 2^-44 + c_2 2^-66 with each c_i just below
    # 2^21: positive chunks of width t = 22 near 2^(t-1), and b's imaginary
    # parts negated, so each of a chunk gemm's pairs adds 2n products near
    # 2^(2t-2).  At n = 1024 a width rule without the factor k would pick
    # t = 22 and overflow 53 bits; the real rule picks t = 21.
    n, t = 1024, 22
    rng = np.random.default_rng(5)

    def parts():
        top = 2 ** (t - 1)
        c0 = rng.integers(top - 2 ** 17, top, (n, n))
        c1 = rng.integers(top - 2 ** 17, top, (n, n))
        c2 = top - 2 ** 12 * rng.integers(1, 32, (n, n))  # the 53-bit part ends at 2^-54
        return np.ldexp(c0, -t) + np.ldexp(c1, -2 * t) + np.ldexp(c2, -3 * t)

    a = parts() + 1j * parts()
    b = parts() - 1j * parts()
    hi, lo = linalg._gemm_exact_dd(a, b)
    for i, j in rng.integers(0, n, (8, 2)):
        want = sum(Fraction(x.real) * Fraction(y.real) - Fraction(x.imag) * Fraction(y.imag)
                   for x, y in zip(a[i], b[:, j]))
        got = Fraction(hi[i, j].real) + Fraction(lo[i, j].real)
        assert abs(got - want) <= Fraction(2) ** -95 * want


def test_two_sum_is_error_free():
    a = np.float64(1.0)
    b = np.float64(2.0**-60)
    s, e = linalg._two_sum(a, b)
    assert float(s) == 1.0
    assert float(e) == 2.0**-60


# ---------------------------------------------------------------------------
# inversion


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_invert_double_residual(n):
    a = _rand_complex(n, 21)
    x = linalg.invert(a)
    assert x.dtype == np.complex128
    r = np.eye(n) - a @ x
    assert linalg.frobenius(r) <= 1e-12 * max(1.0, linalg.frobenius(x))


def test_invert_real_input_promotes():
    # real input is promoted by its own dtype, never by outside state
    for dtype, want in ((np.float64, np.complex128), (np.int64, np.complex128),
                        (np.longdouble, np.clongdouble)):
        x = linalg.invert(np.array([[2, 0], [0, 4]], dtype=dtype))
        assert x.dtype == want
        assert np.allclose(x.astype(np.complex128), np.diag([0.5, 0.25]))


def test_invert_empty_matrix_at_both_precisions():
    for dtype in (np.complex128, np.clongdouble):
        x = linalg.invert(np.zeros((0, 0), dtype=dtype))
        assert x.shape == (0, 0) and x.dtype == dtype


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.invert(np.ones((2, 3)))


def test_invert_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(linalg.SingularMatrixError, match="pivot magnitude"):
        linalg.invert(a)
    with pytest.raises(linalg.SingularMatrixError, match="pivot magnitude"):
        linalg.invert(a.astype(np.clongdouble))


@pytest.mark.parametrize("n", [3, 8, 20])
def test_invert_extended_beats_double(n):
    roots = np.exp(2j * np.pi * np.arange(n) / (2 * n + 1))
    a = _vandermonde(roots)
    x = linalg.invert(a.astype(np.clongdouble))
    assert x.dtype == np.clongdouble
    # residual measured at 200 bits against the exact doubles inside a
    mp_a, mp_x = _mp_matrix(a), _mp_matrix(x)
    r = mpmath.eye(n) - mp_a * mp_x
    # well under double roundoff: the refinement really added bits
    assert _mp_norm(r) <= 1e-17 * _mp_norm(mp_x) * _mp_norm(mp_a)


def test_invert_extended_second_newton_pass(monkeypatch):
    # kappa_F ~ 1e13: the first pass leaves a residual above 1e-9 n, so a
    # second pass runs with a nonzero lo part of X; alo != 0 as well
    pts = np.arange(12, dtype=np.longdouble) / np.longdouble(33)
    a = _vandermonde(pts.astype(np.clongdouble))
    assert np.any(a != a.astype(np.complex128))
    calls = []
    gemm = linalg._gemm_exact_dd

    def spy(x, y):
        calls.append(1)
        return gemm(x, y)

    def no_lu(x):
        raise AssertionError("the LU fallback must not engage")

    monkeypatch.setattr(linalg, "_gemm_exact_dd", spy)
    monkeypatch.setattr(linalg, "_plain_lu_invert", no_lu)
    x = linalg.invert(a)
    assert len(calls) == 2
    mp_a, mp_x = _mp_matrix(a), _mp_matrix(x)
    r = mpmath.eye(12) - mp_a * mp_x
    eps = float(np.finfo(np.longdouble).eps)
    assert _mp_norm(r) <= eps * _mp_norm(mp_a) * _mp_norm(mp_x)
    # and X is A^-1 up to the clongdouble rounding of its entries
    inv = mp_a**-1
    assert _mp_norm(mp_x - inv) <= 4 * eps * _mp_norm(inv)


def test_invert_extended_falls_back_when_seed_cannot_refine(monkeypatch):
    calls = []
    orig = linalg._plain_lu_invert

    def spy(a):
        calls.append(a.dtype)
        return orig(a)

    monkeypatch.setattr(linalg, "_plain_lu_invert", spy)
    eps = 1e-17  # representable in clongdouble, far below double resolution
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.clongdouble)
    a[1, 1] += np.clongdouble(eps)
    x = linalg.invert(a)
    assert calls, "expected the in-dtype LU fallback to engage"
    r = np.eye(2, dtype=np.clongdouble) - a @ x
    # cond ~ 1e17: the double seed's residual is O(10); the fallback keeps it tiny
    assert float(linalg.frobenius(r)) <= 1e-1 * float(linalg.frobenius(x))


@pytest.mark.parametrize("n,fallback", [(11, False), (13, True)])
def test_invert_extended_falls_back_when_newton_cannot_contract(monkeypatch, n, fallback):
    # the Hilbert matrix 1/(i + j + 1) in clongdouble: at order 13 LAPACK's
    # double seed leaves ||I - AX||_F above 0.25 sqrt(n), so the refinement
    # hands over to the in-dtype LU; at order 11 it stays on the Newton path
    calls = []
    orig = linalg._plain_lu_invert

    def spy(a):
        calls.append(a.shape)
        return orig(a)

    monkeypatch.setattr(linalg, "_plain_lu_invert", spy)
    i = np.arange(n)
    a = (np.longdouble(1) / (i[:, None] + i[None, :] + 1)).astype(np.clongdouble)
    x = linalg.invert(a)
    assert calls == ([(n, n)] if fallback else [])
    mp_a, mp_x = _mp_matrix(a), _mp_matrix(x)
    r = mpmath.eye(n) - mp_a * mp_x
    eps = float(np.finfo(np.longdouble).eps)
    assert _mp_norm(r) <= eps * _mp_norm(mp_a) * _mp_norm(mp_x)


def test_plain_lu_matches_lapack():
    a = _rand_complex(16, 31)
    assert np.allclose(linalg._plain_lu_invert(a), np.linalg.inv(a), atol=1e-11)


# ---------------------------------------------------------------------------
# the explicit Lagrange inverse of the cyclotomic Vandermonde


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("n", [2, 7, 36, 105, 173, 360, 1155])
def test_lagrange_inverse_of_exact_cyclotomic_has_small_residual(n, precision):
    # ||V W - I||_F <= 100 eps kappa_F(V), with kappa_F from the dense inverse
    real = linalg.PRECISIONS[precision]
    v = cyclotomic_vandermonde(n, real=real)
    w = cyclotomic_vandermonde_inverse(n, real=real)
    assert w.dtype == v.dtype
    resid = linalg.frobenius(v @ w - np.eye(v.shape[0], dtype=v.dtype))
    assert resid <= 100 * np.finfo(real).eps * linalg.condition_number(v)
