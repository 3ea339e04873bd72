"""Cross-module invariant suites behind the CLI verify command.

Each check returns a list of human-readable violation strings (empty means
pass).  The quick suite keeps everything at small sizes (seconds); the full
suite extends ranges and adds the analytic sweeps: the derivative-denominator
inequality on many-prime conductors and the elementwise inverse-Vandermonde
entry bound.
"""
from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import embeddings, formulas, linalg, ringarith
from .embeddings import Basis, EmbeddingSpec
from .numtheory import (_radical_series, _ternary_series, cyclotomic_poly, factorize,
                        first_primes, height, is_prime)


def _phi_derivative_at(n: int, points: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(cyclotomic_poly(n), dtype=np.float64)
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    return np.polyval(dcoeffs[::-1], points)


def _check_form(report, basis: Basis, label: str, n_max: int, phi_cap: int) -> List[str]:
    # numeric condition number in `basis` vs `report`, where it applies
    out = []
    for n in range(2, n_max + 1):
        c = factorize(n)
        if c.phi > phi_cap:
            continue
        rep = report(c)
        if not rep.applicable:
            continue
        num = embeddings.numeric_cond(EmbeddingSpec(c, basis=basis))
        rel = abs(num - rep.value) / rep.value
        if rel > 1e-9:
            out.append(f"{label} n={n}: numeric {num!r} vs exact {rep.value!r} (rel {rel:.2e})")
    return out


def check_closed_forms(n_max: int = 200, phi_cap: int = 64) -> List[str]:
    """Numeric power-basis condition number vs the exact closed form."""
    return _check_form(formulas.cond_exact_prime_power, Basis.POWER, "closed form",
                       n_max, phi_cap)


def check_twisted_forms(n_max: int = 200, phi_cap: int = 64) -> List[str]:
    """Numeric twisted-basis condition number vs the exact twisted form."""
    return _check_form(formulas.cond_exact_twisted, Basis.TWISTED, "twisted form",
                       n_max, phi_cap)


def check_bound_dominance() -> List[str]:
    """numeric <= refined <= general, on every applicable conductor n <= 200,
    with the numeric value taken where phi(n) <= 64."""
    out = []
    for n in range(2, 201):
        c = factorize(n)
        refined = formulas.cond_bound_refined(c)
        general = formulas.cond_bound_general(c)
        if refined.applicable and general.applicable and refined.value > general.value:
            out.append(f"refined > general at n={n}")
        if c.phi > 64:
            continue
        num = embeddings.numeric_cond(EmbeddingSpec(c))
        if refined.applicable and num > refined.value * (1 + 1e-12):
            out.append(f"numeric {num} exceeds refined bound {refined.value} at n={n}")
        numt = embeddings.numeric_cond(EmbeddingSpec(c, basis=Basis.TWISTED))
        cmq = formulas.cond_bound_cyclomq(c, ())
        if numt > cmq.value * (1 + 1e-12):
            out.append(f"twisted numeric {numt} exceeds tensor bound {cmq.value} at n={n}")
    return out


def check_factored_cond(n_max: int = 100, phi_cap: int = 64,
                        precisions: Tuple[str, ...] = ("double",)) -> List[str]:
    """Factored condition numbers vs the dense reference, for the power and
    twisted bases and, with the smallest prime not dividing n, the twisted
    and hybrid cyclo-multiquadratic bases."""
    out = []
    for prec in precisions:
        real = linalg.PRECISIONS[prec]
        for n in range(2, n_max + 1):
            c = factorize(n)
            if c.phi > phi_cap:
                continue
            q, = first_primes(1, exclude=[p for p, _ in c.factors])
            for spec in (EmbeddingSpec(c), EmbeddingSpec(c, basis=Basis.TWISTED),
                         EmbeddingSpec(c, (q,), Basis.TWISTED),
                         EmbeddingSpec(c, (q,), Basis.HYBRID)):
                fac = embeddings.factored_cond(spec, real=real)
                dense = embeddings.numeric_cond(spec, real=real)
                rel = float(abs(fac - dense) / dense)
                if rel > 1e-12:
                    out.append(f"factored {spec.basis.value} n={n} q={spec.quad_primes} "
                               f"at {prec}: {fac!r} vs dense {dense!r} (rel {rel:.2e})")
    return out


def check_prime_kernel_norms(p_max: int = 4100) -> List[str]:
    """The general Parseval sum on each odd prime kernel p < p_max vs
    (p - 1)/p, bit for bit at both precisions: the value FactoredCond takes
    for a prime kernel without summing, N(p) = 2p ||W_p||^2 = 2(p - 1)."""
    out = []
    for prec, real in linalg.PRECISIONS.items():
        for p in filter(is_prime, range(3, p_max, 2)):
            got = embeddings._half_inverse_norm2(factorize(p), real)
            if got != real(p - 1) / real(p):
                out.append(f"prime kernel p={p} at {prec}: {got!r} vs (p - 1)/p")
    return out


# A 62-bit prime, 1 mod 512, with 2, 3 and 5 square mod it: contexts at this
# modulus compute in Python ints, the ones at 12289 in uint64.
_Q_WIDE = 4611686018427379201
# Rings large enough for the transform plans to switch layouts: a 4096-point
# NTT (split at its middle stage, q = 5 * 2^13 + 1), a 16 x 2^7 hybrid
# (block axis innermost, Hadamard axes in two layouts; squares mod 12289)
# and the 2^7-point WHT on the same d (Hadamard axes in two layouts).
_SPLIT_NTT = (40961, 4096, ())
_SPLIT_HYBRID = (12289, 16, (2, 3, 5, 7, 13, 17, 29))
_SPLIT_WHT = (12289, 1, _SPLIT_HYBRID[2])


def check_transform_roundtrips(trials: int = 5,
                               ctx: Optional[ringarith.RingContext] = None) -> List[str]:
    """Exact inverse(forward(a)) = a for all three ring shapes, at both
    kernel dtypes.

    An explicit ctx (possibly with deliberately corrupted tables) overrides
    the built-in configurations; fault-injection tests rely on that hook.
    """
    rng = random.Random(20240811)
    out = []

    def roundtrip(c):
        for _ in range(trials):
            a = c.poly([rng.randrange(c.q) for _ in range(c.m)])
            if ringarith.inverse(ringarith.forward(a)) != a:
                out.append(f"{ringarith.family(c)} round-trip failed at q={c.q}, "
                           f"m_cyclo={c.m_cyclo}, r={c.r}")
                return

    if ctx is not None:
        roundtrip(ctx)
        return out

    configs = [(12289, mc, ()) for mc in (2, 8, 64)]
    configs += [(12289, 1, ds) for ds in ((2,), (2, 3, 5))]
    configs += [(q, 8, (2, 3)) for q in (12289, _Q_WIDE)]
    for config in configs + [_SPLIT_NTT, _SPLIT_HYBRID, _SPLIT_WHT]:
        roundtrip(ringarith.make_context(*config))
    return out


def check_transform_homomorphism(trials: int = 10, size_cap: int = 64) -> List[str]:
    """Transform-domain pointwise products equal schoolbook products, at
    both kernel dtypes."""
    rng = random.Random(78123)
    out = []
    fwd, inv, mul = ringarith.forward, ringarith.inverse, ringarith.pointwise_mul
    configs = [(12289, 8, ()), (12289, 16, ()),
               (12289, 1, (2, 3, 5)), (12289, 4, (2, 3)), (_Q_WIDE, 4, (2, 3))]
    if size_cap >= 128:
        configs += [(12289, 128, ()), (12289, 16, (2, 3, 5))]
    for q, mc, ds in configs:
        c = ringarith.make_context(q, mc, ds)
        for _ in range(trials):
            a = c.poly([rng.randrange(q) for _ in range(c.m)])
            b = c.poly([rng.randrange(q) for _ in range(c.m)])
            if inv(mul(fwd(a), fwd(b))) != ringarith.schoolbook_mul(a, b):
                out.append(f"{ringarith.family(c)} homomorphism failed at q={q}, "
                           f"m_cyclo={mc}, d={ds}")
                break
    # the split layouts, with a 4-term operand so that the schoolbook oracle
    # stays cheap at m = 4096
    for q, mc, ds in (_SPLIT_NTT, _SPLIT_HYBRID, _SPLIT_WHT):
        c = ringarith.make_context(q, mc, ds)
        sparse = [0] * c.m
        for i in rng.sample(range(c.m), 4):
            sparse[i] = rng.randrange(1, q)
        a, b = c.poly(sparse), c.poly([rng.randrange(q) for _ in range(c.m)])
        if inv(mul(fwd(a), fwd(b))) != ringarith.schoolbook_mul(a, b):
            out.append(f"{ringarith.family(c)} homomorphism failed at q={q}, "
                       f"m_cyclo={mc}, d={ds}")
    return out


def check_operation_counts() -> List[str]:
    """Measured multiplication tallies equal the closed forms."""
    out = []
    for mc in (2, 8, 64, 256):
        c = ringarith.make_context(12289, mc, [])
        a = c.poly(range(mc))
        c.reset_counter()
        fa = ringarith.forward(a)
        lg = mc.bit_length() - 1
        if c.counter.muls != (mc // 2) * lg:
            out.append(f"ntt fwd count at m={mc}: {c.counter.muls} != {(mc // 2) * lg}")
        c.reset_counter()
        ringarith.inverse(fa)
        if c.counter.muls != (mc // 2) * lg + mc:
            out.append(f"ntt inv count at m={mc}: {c.counter.muls}")
    for r in (1, 3, 4):
        c = ringarith.make_context(12289, 1, tuple(first_primes(r, exclude=(11, 13))))
        a = c.poly(range(1 << r))
        c.reset_counter()
        fa = ringarith.forward(a)
        if c.counter.muls != (1 << r) - 1:
            out.append(f"wht fwd count at r={r}: {c.counter.muls} != {(1 << r) - 1}")
        if c.counter.adds != r << r:
            out.append(f"wht fwd adds at r={r}: {c.counter.adds} != {r << r}")
        c.reset_counter()
        ringarith.inverse(fa)
        if c.counter.muls != 1 << r:
            out.append(f"wht inv count at r={r}: {c.counter.muls} != {1 << r}")
    for mc, r in ((4, 2), (16, 3)):
        c = ringarith.make_context(12289, mc, tuple(first_primes(r, exclude=(11, 13))))
        a = c.poly(range(c.m))
        c.reset_counter()
        fa = ringarith.forward(a)
        want = (c.m // 2) * (mc.bit_length() - 1) + c.m
        if c.counter.muls != want:
            out.append(f"hybrid fwd count at ({mc},{r}): {c.counter.muls} != {want}")
        c.reset_counter()
        ringarith.inverse(fa)
        if c.counter.muls != want:
            out.append(f"hybrid inv count at ({mc},{r}): {c.counter.muls} != {want}")
    return out


def check_rns_roundtrip() -> List[str]:
    """CRT reconstruction inverts RNS decomposition: 20 random vectors of 8
    residues for each of three moduli chains, L = 2, 3 and 5."""
    out = []
    rng = random.Random(5150)
    for moduli in ((97, 113), (97, 113, 193), (12289, 40961, 65537, 114689, 147457)):
        rns = ringarith.make_rns_context(moduli, 8, ())
        big_q = rns.modulus_product
        vals = [rng.randrange(big_q) for _ in range(8)]
        for _ in range(20):
            back = ringarith.rns_reconstruct(ringarith.rns_decompose(vals, rns), rns)
            if back != vals:
                out.append(f"rns round-trip failed for L={len(moduli)}")
                break
            vals = [rng.randrange(big_q) for _ in range(8)]
    return out


def check_explicit_inverse() -> List[str]:
    """The exact-Phi_n inverse, factored_cond's oracle in the tests, vs LU
    inversion at n = 5, 8, 16 and 36."""
    out = []
    for n in (5, 8, 16, 36):
        v = embeddings.cyclotomic_vandermonde(n)
        w_lu = linalg.invert(v)
        cond = float(np.abs(linalg.frobenius(v) * linalg.frobenius(w_lu)))
        tol = 200 * np.finfo(np.float64).eps * cond
        diff = float(np.abs(embeddings.cyclotomic_vandermonde_inverse(n) - w_lu).max())
        if diff > tol:
            out.append(f"exact Phi_n inverse at n={n}: max diff {diff:.2e} > tol {tol:.2e}")
    return out


def check_height_identities() -> List[str]:
    """A(n), taken from the lower half of its height_kernel's series (by
    Kaplan's lemma when that kernel is ternary), equals the largest
    |coefficient| of the full Phi_n from the radical's Moebius series, for
    n <= 200; the divisor product of cyclotomics rebuilds x^n - 1 (checked
    exactly at x = 2)."""
    out = []
    for n in range(2, 201):
        got, want = height(n), max(abs(int(v)) for v in cyclotomic_poly(n))
        if got != want:
            out.append(f"A({n}) = {got} != max |Phi_{n} coefficient| = {want}")
    for n in list(range(2, 40)) + [48, 105, 128, 200]:
        prod = 1
        for d in range(1, n + 1):
            if n % d == 0:
                coeffs = cyclotomic_poly(d)
                val = 0
                for cc in reversed(coeffs):
                    val = val * 2 + int(cc)
                prod *= val
        if prod != 2 ** n - 1:
            out.append(f"divisor product of cyclotomics broken at n={n}")
    return out


def check_kaplan_representatives(s_max: int = 5000) -> List[str]:
    """For every odd squarefree s = pqr <= s_max: the lower half of Phi_s by
    Kaplan's lemma (`_ternary_series`) vs its Moebius series, entry for
    entry, and A(s) from its Kaplan representative (`height`) vs the largest
    |coefficient| of that Moebius series."""
    out = []
    for s in range(105, s_max + 1, 2):
        c = factorize(s)
        if c.omega != 3 or c.rad != s:
            continue
        primes = [p for p, _ in c.factors]
        half = c.phi // 2 + 1
        series = _radical_series(primes, half)
        wrong = np.flatnonzero(_ternary_series(primes, half) != series)
        if wrong.size:
            out.append(f"Phi_{s} by Kaplan's lemma differs from its Moebius series "
                       f"at {wrong.size} degrees, the first {wrong[0]}")
        want = int(np.abs(series).max())
        got = height(c)
        if got != want:
            out.append(f"A({s}) = {got} from its representative, {want} from its own series")
    return out


def _sample_dens_conductors(count: int, phi_cap: int = 3000) -> List[int]:
    # conductors with 4 or 5 distinct primes under the phi cap, mixing the
    # omega classes; omega = 6 forces phi >= 5760, above the 3000 cap
    per_omega = {4: [], 5: []}
    want5 = max(count // 3, 1)
    n = 2
    while n < 10 ** 5 and (len(per_omega[4]) < count or len(per_omega[5]) < want5):
        c = factorize(n)
        if c.omega in per_omega and c.phi <= phi_cap:
            per_omega[c.omega].append(n)
        n += 1
    picked = per_omega[5][:want5]
    picked += per_omega[4][:count - len(picked)]
    return sorted(picked)


def check_dens_inequality(count: int = 20, phi_cap: int = 3000) -> List[str]:
    """max over primitive n-th roots z of 1/|Phi_n'(z)| <= 2 phi(n)^{omega-3}."""
    out = []
    for n in _sample_dens_conductors(count, phi_cap):
        c = factorize(n)
        roots = embeddings.primitive_roots_of_unity(n)
        deriv = np.abs(_phi_derivative_at(n, roots))
        worst = float((1.0 / deriv).max())
        bound = 2.0 * float(c.phi) ** (c.omega - 3)
        if worst > bound:
            out.append(f"derivative bound failed at n={n}: {worst:.4g} > {bound:.4g}")
    return out


def check_inverse_entry_bound() -> List[str]:
    """|w_ij| <= rad(n) (A(n)+1) / |Phi'_rad(z_j^{n/rad})| entrywise on the
    inverse Vandermonde, for every n <= 2000 with phi(n) <= 256."""
    out = []
    for n in range(2, 2001):
        c = factorize(n)
        if c.phi > 256:
            continue
        roots = embeddings.primitive_roots_of_unity(n)
        w = linalg.invert(embeddings.cyclotomic_vandermonde(n))
        denom = np.abs(_phi_derivative_at(c.rad, roots.astype(np.complex128) ** (n // c.rad)))
        bound = c.rad * (height(n) + 1) / denom
        mags = np.abs(np.asarray(w, dtype=np.complex128))
        if (mags > bound[None, :] * (1 + 1e-8) + 1e-12).any():
            j = int(np.argmax((mags - bound[None, :]).max(axis=0)))
            out.append(f"inverse-entry bound failed at n={n}, column {j}")
    return out


def check_symbolic_reports(n_max: int = 200) -> List[str]:
    """Report values vs the paper's formulas, evaluated here in floats from
    the factorization; a symbolic form, where present, must reproduce its
    value (the cyclo-multiquadratic bound builds the two separately)."""
    refined_exp = {1: 0, 2: 1, 3: 2, 4: 4, 5: 7, 6: 11}
    out = []
    for n in range(2, n_max + 1):
        c = factorize(n)
        ps = [p for p, _ in c.factors]
        odd = [p for p in ps if p != 2]
        p = odd[0] if odd else 2
        phi_rad = math.prod(q - 1 for q in ps)
        try:
            general = 2.0 * c.rad * float(n) ** ((1 << c.omega) + c.omega + 2) * height(n)
        except OverflowError:
            general = math.inf
        expected = [
            (formulas.cond_exact_prime_power(c),
             c.phi * math.sqrt(2 - 2 / p) if len(odd) <= 1 else None),
            (formulas.cond_exact_twisted(c),
             c.phi * math.sqrt(2 ** c.omega * math.prod(1 - 1 / q for q in ps))),
            (formulas.cond_bound_refined(c),
             4.0 * phi_rad ** refined_exp[c.omega] * c.phi ** 2
             if c.omega in refined_exp else None),
            (formulas.cond_bound_general(c), general),
            (formulas.cond_bound_cyclomq(c, ()), c.phi * math.sqrt(2 ** c.omega)),
        ]
        for rep, want in expected:
            if rep.applicable != (want is not None):
                out.append(f"{rep.kind.value} at n={n}: applicable={rep.applicable}")
                continue
            if want is None or math.isinf(want):
                continue
            if abs(rep.value - want) > 1e-12 * want:
                out.append(f"{rep.kind.value} at n={n}: {rep.value!r} vs formula {want!r}")
            if rep.symbolic is not None and abs(float(rep.symbolic) - rep.value) > 1e-12 * want:
                out.append(f"{rep.kind.value} at n={n}: symbolic {float(rep.symbolic)!r} "
                           f"vs value {rep.value!r}")
    return out


def check_cond_columns(n_max: int = 2000) -> List[str]:
    """formulas.cond_columns, which the cond CSV prints, vs the four reports
    it stands for: the same floats bit for bit, NaN exactly where a report is
    inapplicable, and the general bound's exact integer."""
    out = []
    for n in range(2, n_max + 1):
        c = factorize(n)
        got = formulas.cond_columns(c)
        general = formulas.cond_bound_general(c, coeff_height=1)
        for value, rep in zip(got[:4], (formulas.cond_exact_prime_power(c),
                                        formulas.cond_exact_twisted(c),
                                        formulas.cond_bound_refined(c), general)):
            if not (value == rep.value if rep.applicable else math.isnan(value)):
                out.append(f"{rep.kind.value} column at n={n}: {value!r} vs report {rep.value!r}")
        if got.general_over_a_exact != general.symbolic.coeff:
            out.append(f"general bound integer at n={n}: {got.general_over_a_exact} "
                       f"vs report {general.symbolic.coeff}")
    return out


QUICK: List[Tuple[str, Callable[[], List[str]]]] = [
    ("closed-form vs numeric (n<=200)", check_closed_forms),
    ("twisted form vs numeric (n<=200)", check_twisted_forms),
    ("bound dominance (n<=200, numeric at phi<=64)", check_bound_dominance),
    ("factored vs dense condition numbers (n<=100)", check_factored_cond),
    ("prime-kernel Parseval sum vs (p - 1)/p, bitwise (p < 4100, both precisions)",
     check_prime_kernel_norms),
    ("transform round-trips (m<=64, split layouts at m=4096, 2048, 128)",
     check_transform_roundtrips),
    ("transform homomorphism (m<=64, split layouts at m=4096, 2048, 128)",
     check_transform_homomorphism),
    ("operation counts", check_operation_counts),
    ("rns round-trip (L = 2, 3, 5)", check_rns_roundtrip),
    ("exact-Phi_n Vandermonde inverse vs LU (n = 5, 8, 16, 36)", check_explicit_inverse),
    ("height vs max |Phi_n coefficient|, divisor product (n<=200)",
     check_height_identities),
    ("Kaplan lemma and representative vs the Moebius lower half (pqr <= 5000)",
     check_kaplan_representatives),
    ("report values vs the paper's formulas (n<=200)", check_symbolic_reports),
    ("cond formula columns vs the reports, bitwise (n<=2000)", check_cond_columns),
]

FULL: List[Tuple[str, Callable[[], List[str]]]] = QUICK + [
    ("closed-form vs numeric (n<=2000)",
     lambda: check_closed_forms(2000, 512)),
    ("twisted form vs numeric (n<=2000)",
     lambda: check_twisted_forms(2000, 512)),
    ("factored vs dense condition numbers (n<=300, both precisions)",
     lambda: check_factored_cond(300, 300, ("double", "extended"))),
    ("transform homomorphism (m<=128, split layouts at m=4096, 2048, 128)",
     lambda: check_transform_homomorphism(trials=5, size_cap=128)),
    ("derivative-denominator inequality (20 conductors)", check_dens_inequality),
    ("inverse-entry bound sweep (n<=2000, phi<=256)", check_inverse_entry_bound),
    ("Kaplan lemma and representative vs the Moebius lower half (pqr <= 1e5)",
     lambda: check_kaplan_representatives(10 ** 5)),
    ("cond formula columns vs the reports, bitwise (n<=1e5)",
     lambda: check_cond_columns(10 ** 5)),
]


def run(full: bool = False) -> int:
    """Run a suite; print one line per check; return count of failing checks."""
    suite = FULL if full else QUICK
    failures = 0
    for name, fn in suite:
        problems = fn()
        if problems:
            failures += 1
            print(f"[FAIL] {name}")
            for p in problems[:5]:
                print(f"       {p}")
            if len(problems) > 5:
                print(f"       ... and {len(problems) - 5} more")
        else:
            print(f"[ok]   {name}")
    return failures
