"""Closed forms, bounds, and their report plumbing.

Non-circular checks: every exact form is compared against the numeric
condition number of the materialized matrix, every bound is checked for
dominance over the numeric value, and height estimates are checked against
true coefficient heights.  Pinned literals cover the hand-checkable cases.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from ringcond import formulas as fm
from ringcond.embeddings import Basis, EmbeddingSpec, numeric_cond, quadratic_block
from ringcond.linalg import condition_number
from ringcond.numtheory import factorize, height

SQ = math.sqrt


# ---------------------------------------------------------------------------
# SymbolicValue / BoundReport plumbing


def test_symbolic_value_float_and_mul():
    s = fm.SymbolicValue(Fraction(3), Fraction(2))
    assert float(s) == pytest.approx(3 * SQ(2), rel=1e-15)
    t = s * fm.SymbolicValue(Fraction(1, 3), Fraction(8))
    assert float(t) == pytest.approx(4.0, rel=1e-15)


def test_symbolic_value_equals_across_forms():
    # 2 sqrt(3) == sqrt(12)
    a = fm.SymbolicValue(Fraction(2), Fraction(3))
    b = fm.SymbolicValue(Fraction(1), Fraction(12))
    assert a.equals(b)
    assert not a.equals(fm.SymbolicValue(Fraction(2), Fraction(5)))


def test_symbolic_value_overflow_to_inf_keeps_log10():
    s = fm.SymbolicValue(Fraction(10**400))
    assert math.isinf(float(s))
    assert s.log10() == pytest.approx(400.0, rel=1e-12)


def test_report_float_and_inapplicable_shape():
    rep = fm.cond_exact_prime_power(15)  # two odd primes: no closed form
    assert not rep.applicable
    assert rep.reason
    assert math.isnan(float(rep))
    ok = fm.cond_exact_prime_power(16)
    assert ok.applicable and ok.reason == ""
    assert ok.symbolic.log10() == pytest.approx(math.log10(ok.value), rel=1e-12)


# ---------------------------------------------------------------------------
# exact closed forms


def test_exact_prime_power_pinned():
    assert fm.cond_exact_prime_power(16).value == 8.0
    assert fm.cond_exact_prime_power(2**17).value == 65536.0
    assert fm.cond_exact_prime_power(3).value == pytest.approx(
        2 * SQ(2 * (1 - 1 / 3)), rel=1e-15
    )
    assert fm.cond_exact_prime_power(12).value == pytest.approx(
        4 * SQ(2 * (1 - 1 / 3)), rel=1e-15
    )
    # 1458 = 2 * 3^6
    assert fm.cond_exact_prime_power(1458).value == pytest.approx(
        486 * SQ(4 / 3), rel=1e-15
    )
    assert fm.cond_exact_prime_power(1).applicable is False


@pytest.mark.parametrize("n", [4, 5, 7, 9, 16, 18, 27, 44, 50])
def test_exact_prime_power_matches_numeric(n):
    rep = fm.cond_exact_prime_power(n)
    assert rep.applicable
    assert numeric_cond(EmbeddingSpec(n)) == pytest.approx(rep.value, rel=1e-11)


def test_exact_twisted_pinned_105():
    rep = fm.cond_exact_twisted(105)
    want = 48 * SQ(8 * (2 / 3) * (4 / 5) * (6 / 7))
    assert rep.value == pytest.approx(want, rel=1e-14)
    assert rep.kind == fm.Kind.EXACT_TWISTED


@pytest.mark.parametrize("n", [12, 15, 36, 60, 105])
def test_exact_twisted_matches_numeric(n):
    rep = fm.cond_exact_twisted(n)
    got = numeric_cond(EmbeddingSpec(n, basis=Basis.TWISTED))
    assert got == pytest.approx(rep.value, rel=1e-10)


def test_exact_twisted_radicand_is_the_product_form():
    for n in range(2, 3001):
        c = factorize(n)
        radicand = Fraction(2**c.omega)
        for p, _ in c.factors:
            radicand *= Fraction(p - 1, p)
        assert fm.cond_exact_twisted(n).symbolic == fm.SymbolicValue(Fraction(c.phi), radicand)


def test_twisted_reduces_to_closed_on_prime_powers():
    for n in (8, 9, 25, 128):
        a = fm.cond_exact_prime_power(n)
        b = fm.cond_exact_twisted(n)
        assert a.symbolic.equals(b.symbolic)


@pytest.mark.parametrize(
    "p,want",
    [
        (2, SQ(2) + 1 / SQ(2)),
        (3, SQ(3) + 1 / SQ(3)),
        (5, SQ(5)),  # (5+5)/(2 sqrt 5)
        (13, 18 / (2 * SQ(13))),
    ],
)
def test_cond_quadratic_pinned(p, want):
    rep = fm.cond_quadratic(p)
    assert rep.value == pytest.approx(want, rel=1e-15)
    assert rep.value == pytest.approx(condition_number(quadratic_block(p)), rel=1e-13)


def test_cond_quadratic_rejects_composite():
    with pytest.raises(ValueError):
        fm.cond_quadratic(10)


def test_exact_cyclomq_twisted_pinned():
    rep = fm.cond_exact_cyclomq_twisted(8, (3, 5))
    want = 4 * (SQ(3) + 1 / SQ(3)) * SQ(5)
    assert rep.value == pytest.approx(want, rel=1e-14)
    got = numeric_cond(EmbeddingSpec(8, (3, 5), Basis.TWISTED))
    assert got == pytest.approx(rep.value, rel=1e-10)


def test_exact_cyclomq_prime_validation():
    with pytest.raises(ValueError):
        fm.cond_exact_cyclomq_twisted(8, (2,))  # divides the conductor
    with pytest.raises(ValueError):
        fm.cond_exact_cyclomq_twisted(8, (3, 3))
    with pytest.raises(ValueError):
        fm.cond_exact_cyclomq_twisted(8, (15,))


def test_non_integral_inputs_are_rejected_not_truncated():
    # cond_quadratic(5.9) used to report the block for 5
    calls = [
        lambda: fm.cond_quadratic(5.9),
        lambda: fm.cond_bound_quadratic(5.9),
        lambda: fm.cond_exact_cyclomq_twisted(8, (3.0,)),
        lambda: fm.cond_bound_cyclomq(8, (5.5,)),
        lambda: fm.hybrid_bound(8, (3, 5.0)),
        lambda: fm.cond_bound_general(105, coeff_height=1.5),
        lambda: fm.omega_upper_bound(30.0),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    # numpy integers are integral and still accepted
    assert fm.cond_quadratic(np.int64(5)).value == fm.cond_quadratic(5).value
    assert fm.cond_bound_quadratic(np.int32(7)).value == fm.cond_bound_quadratic(7).value
    assert (fm.cond_exact_cyclomq_twisted(8, (np.int64(3),)).value
            == fm.cond_exact_cyclomq_twisted(8, (3,)).value)
    assert (fm.cond_bound_general(105, coeff_height=np.int64(1)).value
            == fm.cond_bound_general(105, coeff_height=1).value)
    assert fm.omega_upper_bound(np.int64(30)) == fm.omega_upper_bound(30)


# ---------------------------------------------------------------------------
# bounds


def test_bound_general_pinned_small():
    rep = fm.cond_bound_general(6)
    # 2 * rad * n^(2^omega + omega + 2) * A = 2 * 6 * 6^8 * 1
    assert rep.value == float(12 * 6**8)
    assert rep.exponent == 8
    assert rep.symbolic.coeff == Fraction(12 * 6**8)


def test_bound_general_uses_true_height():
    rep = fm.cond_bound_general(105)
    assert rep.symbolic.coeff == Fraction(2 * 105 * 105**13 * 2)  # A(105) = 2


def test_bound_general_height_override_and_validation():
    assert fm.cond_bound_general(105, coeff_height=1).value == pytest.approx(
        fm.cond_bound_general(105).value / 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        fm.cond_bound_general(105, coeff_height=0)


def test_bound_general_overflow_keeps_exact_forms():
    rep = fm.cond_bound_general(9699690, coeff_height=1)  # omega = 8
    assert math.isinf(rep.value)
    assert rep.applicable
    assert "exceeds double range" in rep.reason
    e = 2**8 + 8 + 2
    want_log10 = math.log10(2 * 9699690) + e * math.log10(9699690)
    assert rep.symbolic.log10() == pytest.approx(want_log10, rel=1e-12)
    assert rep.symbolic.coeff == Fraction(2 * 9699690 * 9699690**e)


def test_bound_refined_pinned():
    rep = fm.cond_bound_refined(105)  # omega=3: 4 * phi(rad)^2 * phi(n)^2
    assert rep.value == float(4 * 48**2 * 48**2)
    assert rep.exponent == 4  # growth order m^(2+e)
    assert fm.cond_bound_refined(2**10).value == float(4 * 512**2)
    bad = fm.cond_bound_refined(510510)  # omega = 7
    assert not bad.applicable and "1..6" in bad.reason


def test_bound_refined_exponent_table():
    for omega, e in fm._REFINED_EXP.items():
        assert omega in range(1, 7) and e == {1: 0, 2: 1, 3: 2, 4: 4, 5: 7, 6: 11}[omega]


def test_bound_quadratic_pinned():
    rep = fm.cond_bound_quadratic(97)
    assert rep.value == pytest.approx(2 + SQ(97), rel=1e-15)
    assert rep.value >= fm.cond_quadratic(97).value
    for p in (2, 3, 5, 13, 41):
        assert fm.cond_bound_quadratic(p).value >= fm.cond_quadratic(p).value


def test_bound_cyclomq_pinned():
    rep = fm.cond_bound_cyclomq(4, (3,))
    assert rep.value == pytest.approx(2 * SQ(2) * (2 + SQ(3)), rel=1e-14)
    assert rep.symbolic is None  # mixed radical: no single c*sqrt(d) form
    pure = fm.cond_bound_cyclomq(12, ())
    assert pure.symbolic is not None
    assert pure.value == pytest.approx(4 * 2.0, rel=1e-14)


_CYCLOMQ_CASES = [(4, (3,)), (8, (3, 5)), (12, (7,)), (36, (5, 7))]
_HYBRID_CASES = [(4, (3,)), (8, (5,)), (12, (7, 11)), (15, (2,)), (8, (3,)), (12, (5,))]


def test_bound_cyclomq_dominates_exact():
    for n, ps in _CYCLOMQ_CASES:
        b = fm.cond_bound_cyclomq(n, ps)
        x = fm.cond_exact_cyclomq_twisted(n, ps)
        assert b.value >= x.value


def test_hybrid_bound_pinned():
    rep = fm.hybrid_bound(8, (3,))
    assert rep.value == pytest.approx(64 * (2 + SQ(3)), rel=1e-14)
    assert rep.exponent == 2
    assert fm.hybrid_bound(4, (3,)).value == pytest.approx(
        16 * (2 + SQ(3)), rel=1e-14
    )
    rep = fm.hybrid_bound(12, (5,))
    assert rep.value == pytest.approx(128 * (2 + SQ(5)), rel=1e-14)
    assert rep.exponent == 3
    bad = fm.hybrid_bound(510510, (523,))
    assert not bad.applicable


def test_envelope_products_are_bitwise_the_explicit_loops():
    for n, ps in _CYCLOMQ_CASES + _HYBRID_CASES:
        c = factorize(n)
        cmq = c.phi * 2.0 ** (0.5 * c.omega)
        hyb = fm.cond_bound_refined(n).value
        for p in ps:
            cmq *= 2.0 + math.sqrt(p)
            hyb *= 2.0 + math.sqrt(p)
        assert fm.cond_bound_cyclomq(n, ps).value == cmq
        assert fm.hybrid_bound(n, ps).value == hyb


def test_hybrid_exponent_is_the_refined_exponent():
    for n, ps in [(8, (3,)), (12, (5,)), (30, (7,)), (210, (11,)), (2310, (13,)),
                  (30030, (17,))]:
        assert fm.hybrid_bound(n, ps).exponent == fm.cond_bound_refined(n).exponent
    assert [fm.hybrid_bound(n, ()).exponent for n in (8, 12, 30, 210, 2310, 30030)] == [
        2, 3, 4, 6, 9, 13]


def test_hybrid_bound_dominates_numeric():
    for n, ps in _HYBRID_CASES[:4]:
        b = fm.hybrid_bound(n, ps)
        got = numeric_cond(EmbeddingSpec(n, ps, Basis.HYBRID))
        assert b.value >= got


# ---------------------------------------------------------------------------
# bound dominance over numerics, power basis


@pytest.mark.parametrize("n", list(range(2, 61)))
def test_bounds_dominate_numeric_power_basis(n):
    got = numeric_cond(EmbeddingSpec(n))
    gen = fm.cond_bound_general(n)
    assert float(gen) >= got
    ref = fm.cond_bound_refined(n)
    if ref.applicable:
        assert float(ref) >= got
    tw = fm.cond_exact_twisted(n)
    cmq = fm.cond_bound_cyclomq(n, ())
    assert cmq.value >= tw.value


# ---------------------------------------------------------------------------
# sweep rows: cond_columns against the reports it replaces in `cond`


@pytest.mark.parametrize("ns", [range(2, 30001), [510510], range(999990, 1000011)],
                         ids=["n<=30000", "510510", "around-10^6"])
def test_cond_columns_are_bitwise_the_report_values(ns):
    # 510510 has seven primes (no refined bound; the general one ~1e788),
    # and the window around 10^6 is where factorize once left a 10^6 sieve
    # for trial division
    for n in ns:
        c = factorize(n)
        got = fm.cond_columns(c)
        general = fm.cond_bound_general(c, coeff_height=1)
        reports = (fm.cond_exact_prime_power(c), fm.cond_exact_twisted(c),
                   fm.cond_bound_refined(c), general)
        for value, rep in zip(got[:4], reports):
            if rep.applicable:
                assert value == rep.value, (n, rep.kind)
            else:
                assert math.isnan(value), (n, rep.kind)
        assert got.general_over_a_exact == general.symbolic.coeff


def test_cond_columns_past_double_range_keep_the_exact_integer():
    got = fm.cond_columns(510510)
    assert math.isnan(got.bound_refined) and math.isinf(got.bound_general_over_a)
    assert got.general_over_a_exact == 2 * 510510 * 510510 ** (2**7 + 7 + 2)


def test_cond_columns_of_one_are_empty():
    assert all(math.isnan(v) for v in fm.cond_columns(1)[:4])
    assert fm.cond_columns(1).general_over_a_exact is None


# ---------------------------------------------------------------------------
# height estimates / omega bound


def test_height_bound_56_pinned():
    assert fm.height_bound_56(210).value == 10.0  # 2*1*(2*3-1)
    assert fm.height_bound_56(1155).value == 84.0  # 3*2*(3*5-1)
    assert fm.height_bound_56(2310).value == pytest.approx(
        135 * 2**7 * 3**3 * 5 / 512, rel=1e-15
    )
    assert fm.height_bound_56(30030).symbolic.coeff == Fraction(
        18225 * 2**15 * 3**7 * 5**3 * 7, 262144
    )
    assert not fm.height_bound_56(30).applicable
    assert not fm.height_bound_56(510510).applicable


@pytest.mark.parametrize("n", [210, 330, 390, 462, 1155, 2310, 4290, 15015])
def test_height_bound_56_dominates_true_height(n):
    rep = fm.height_bound_56(n)
    assert rep.applicable
    assert rep.value >= height(n)


def test_omega_upper_bound():
    with pytest.raises(ValueError):
        fm.omega_upper_bound(2)
    assert fm.omega_upper_bound(3) == pytest.approx(
        1.3841 * math.log(3) / math.log(math.log(3)), rel=1e-15
    )
    for n in (6, 30, 210, 2310, 30030, 510510, 9699690):
        assert factorize(n).omega <= fm.omega_upper_bound(n)
