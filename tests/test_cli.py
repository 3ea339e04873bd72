"""Command-line surface: sweep CSV shape and determinism, bench counts and
ratios, verify suites, exit codes, and the precision flag."""
import copy
import csv
import hashlib
import importlib
import io
import math
import os
import pkgutil
import tracemalloc

import numpy as np
import pytest

import ringcond
from ringcond import _checks, cli, embeddings, formulas, linalg, numtheory, ringarith
from ringcond.embeddings import EmbeddingSpec, factored_cond
from ringcond.numtheory import is_prime

GOLDEN_COND = os.path.join(os.path.dirname(__file__), "data", "cond_2_300.csv")


def run_cond(tmp_path, *args):
    out = tmp_path / "out.csv"
    rc = cli.main(["cond", *args, "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# cond


def test_cond_header_and_row_values(tmp_path):
    rows = run_cond(tmp_path, "--min", "3", "--max", "3", "--numeric-cap", "16")
    assert list(rows[0].keys()) == cli.COND_HEADER
    row = rows[0]
    assert row["n"] == "3" and row["omega"] == "1"
    assert row["phi"] == "2" and row["rad"] == "3" and row["A_n"] == "1"
    want = 2 * math.sqrt(2 * (1 - 1 / 3))
    assert float(row["exact_closed"]) == pytest.approx(want, rel=1e-11)
    assert float(row["exact_twisted"]) == pytest.approx(want, rel=1e-11)
    assert float(row["numeric_power"]) == pytest.approx(want, rel=1e-9)
    assert float(row["numeric_twisted"]) == pytest.approx(want, rel=1e-9)
    assert float(row["bound_refined"]) >= want
    assert float(row["bound_general_over_A"]) >= want


def test_cond_numeric_columns_empty_above_cap(tmp_path):
    rows = run_cond(tmp_path, "--min", "2", "--max", "20", "--numeric-cap", "4")
    by_n = {r["n"]: r for r in rows}
    assert by_n["5"]["numeric_power"] != ""  # phi = 4 <= cap
    assert by_n["11"]["numeric_power"] == ""  # phi = 10 > cap
    assert by_n["11"]["exact_closed"] != ""  # formulas always present
    rows = run_cond(tmp_path, "--min", "2", "--max", "6", "--numeric-cap", "0")
    assert all(r["numeric_power"] == "" and r["numeric_twisted"] == "" for r in rows)


def test_cond_closed_form_blank_when_inapplicable(tmp_path):
    rows = run_cond(tmp_path, "--min", "15", "--max", "15", "--numeric-cap", "0")
    assert rows[0]["exact_closed"] == ""  # 15 = 3*5 has two odd primes
    assert rows[0]["exact_twisted"] != ""


def test_cond_omega_filter(tmp_path):
    rows = run_cond(tmp_path, "--min", "3", "--max", "20", "--omega", "2",
                    "--numeric-cap", "0")
    assert [r["n"] for r in rows] == ["6", "10", "12", "14", "15", "18", "20"]


def test_cond_csv_values_have_twelve_significant_digits(tmp_path):
    rows = run_cond(tmp_path, "--min", "7", "--max", "7", "--numeric-cap", "8")
    v = rows[0]["exact_closed"]
    mantissa = v.split("e")[0]
    assert len(mantissa.replace(".", "").replace("-", "")) == 12


def test_cond_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["cond", "--min", "2", "--max", "40", "--numeric-cap", "16",
                     "--out", str(a)]) == 0
    assert cli.main(["cond", "--min", "2", "--max", "40", "--numeric-cap", "16",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cond_stdout_dash(capsys):
    assert cli.main(["cond", "--min", "4", "--max", "4", "--numeric-cap", "0",
                     "--out", "-"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["n"] == "4" and float(rows[0]["exact_closed"]) == 2.0


def test_cond_overflow_cells_render_from_exact_integers(tmp_path):
    # smallest omega = 6 conductor: the height-scaled general bound is ~1e347
    rows = run_cond(tmp_path, "--min", "30030", "--max", "30030",
                    "--numeric-cap", "0")
    cell = rows[0]["bound_general_over_A"]
    mant, exp = cell.split("e")
    assert int(exp) > 308  # past double range, still rendered exactly
    assert len(mant.replace(".", "")) == 12
    assert not math.isinf(float(mant))
    # cross-check the digits against the exact integer 2 * rad * n^72
    from decimal import Context

    exact = 2 * 30030 * 30030 ** (2**6 + 6 + 2)
    want = Context(prec=12).create_decimal(exact)
    assert cell == f"{want:.11e}".replace("E", "e")


def _cond_at(tmp_path, precision, n):
    out = tmp_path / f"{precision}.csv"
    assert cli.main(["--precision", precision, "cond", "--min", str(n), "--max", str(n),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return next(csv.DictReader(fh))


def test_cond_extended_precision_flag(tmp_path, monkeypatch):
    row = _cond_at(tmp_path, "extended", 16)
    assert float(row["numeric_power"]) == pytest.approx(8.0, rel=1e-12)
    ext = _cond_at(tmp_path, "extended", 173)
    assert ext["numeric_power"] == ext["exact_closed"] == "2.42540694398e+02"
    # the two precisions print the same digits on every small conductor, so
    # check that the flag reaches the numbers through the dtype they get
    seen = []

    class Spy(embeddings.FactoredCond):
        def __call__(self, spec):
            seen.append(self.real)
            return super().__call__(spec)

    monkeypatch.setattr(embeddings, "FactoredCond", Spy)
    for precision, real in (("extended", np.longdouble), ("double", np.float64)):
        seen.clear()
        _cond_at(tmp_path, precision, 105)
        assert len(seen) == 2 and all(r is real for r in seen)


def test_precision_flag_is_scoped_to_one_call(tmp_path, monkeypatch):
    made = []

    class Spy(embeddings.FactoredCond):
        def __init__(self, *, real):
            made.append(real)
            super().__init__(real=real)

    def sweep(name, *pre):
        out = tmp_path / name
        assert cli.main([*pre, "cond", "--min", "2", "--max", "300", "--out", str(out)]) == 0
        return out.read_bytes()

    monkeypatch.setattr(embeddings, "FactoredCond", Spy)
    first = sweep("first.csv")
    sweep("ext.csv", "--precision", "extended")
    # neither the shared parser's defaults nor the kernel norms of the
    # extended sweep reach the next call, which makes its own evaluator
    assert sweep("after.csv") == first
    assert made == [np.float64, np.longdouble, np.float64]
    assert type(factored_cond(EmbeddingSpec(16))) is np.float64


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_cond_matches_golden_csv(tmp_path, precision):
    # the nine exact columns are byte-identical to the committed table; the
    # two numeric ones may move in the last digits with the platform's libm
    out = tmp_path / "cond.csv"
    assert cli.main(["--precision", precision, "cond", "--min", "2", "--max", "300",
                     "--out", str(out)]) == 0
    with open(GOLDEN_COND, newline="") as fh:
        want = list(csv.reader(fh))
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0] == cli.COND_HEADER and len(got) == len(want) == 300
    for g, w in zip(got[1:], want[1:]):
        assert g[:9] == w[:9]
        assert [float(c) for c in g[9:]] == pytest.approx([float(c) for c in w[9:]],
                                                          rel=1e-10), g[0]


# sha256 of the nine exact columns of `cond --numeric-cap 0` (header
# included, cells joined by "," and rows ended by "\n") over windows with
# four to six primes, two of them around A(40755) = A(81510) = 359, the
# largest height below 1e5; recorded before the height series last changed.
# The two windows past 1e5 were recorded while the formula columns still
# came from the BoundReport functions: the first holds 510510 = 2*3*...*17
# (seven primes: no refined bound, a general bound past double range), the
# second crosses 10^6, where factorize then left a 10^6 sieve for trial
# division.
_COND_EXACT_DIGESTS = {
    (15000, 15100): "0e4cc2b8cdac92895623df43a120bc884138f3ccaa063f4aaccf47272cf47a93",
    (30000, 30100): "d897c730fe4e5ae345368ebded301c105e16dd9245314616e663a1457e08ade0",
    (40700, 40800): "a042c565d4ed9cbf47e41f42027c6373bc5be80685a103eaef8b0208cfe1ef50",
    (81500, 81600): "69c9e3a3e2332c357b7439f7fac87b2b9c3f5377f4135123073cf4b9ca344efe",
    (90000, 90100): "eda391a4cf068361473eb939b4bfd0a1734188333b30a6c8f266127238a8c817",
    (510500, 510520): "98e572553c386d12ece8fb94a005c6f84dee13779b717af39e4637708b318554",
    (999990, 1000010): "9dd55bbc6bc30c9c295385be64dacc7c778fa86c347056d62eb36722f347e131",
}


@pytest.mark.parametrize("window", sorted(_COND_EXACT_DIGESTS))
def test_cond_exact_columns_pinned_where_heights_are_large(tmp_path, window):
    out = tmp_path / "cond.csv"
    lo, hi = window
    assert cli.main(["cond", "--min", str(lo), "--max", str(hi), "--numeric-cap", "0",
                     "--limit", str(hi), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == hi - lo + 2
    text = "".join(",".join(row[:9]) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == _COND_EXACT_DIGESTS[window]


def test_cond_runs_one_height_series_per_kaplan_class(tmp_path, monkeypatch):
    # 435..915 has 50 rows whose odd kernel has three or more primes, on 38
    # kernels and 23 representatives: the memo runs the series once for each
    # representative, and every 3*5*r there with r = +-1 (mod 15) shares
    # 3*5*29.  Each row searches for its representative once, for the key
    # and the series alike
    called, searched = [], []

    def spying(real):
        def spy(primes, num_terms):
            called.append(math.prod(primes))
            return real(primes, num_terms)
        return spy

    def count_search(c):
        searched.append(c.n)
        return real_primes(c)

    real_primes = numtheory._height_primes
    monkeypatch.setattr(numtheory, "_height_primes", count_search)
    for name in ("_ternary_series", "_radical_series"):
        monkeypatch.setattr(numtheory, name, spying(getattr(numtheory, name)))
    rows = run_cond(tmp_path, "--min", "435", "--max", "915", "--numeric-cap", "0")
    assert searched == list(range(435, 916))
    assert len(called) == len(set(called)) == 23
    odd = [rad if rad % 2 else rad // 2 for rad in (int(row["rad"]) for row in rows)]
    odd = [s for s in odd if numtheory.factorize(s).omega >= 3]
    assert (len(odd), len(set(odd))) == (50, 38)
    ones = sorted(s for s in set(odd) if s % 15 == 0 and numtheory.factorize(s).omega == 3
                  and s // 15 % 15 in (1, 14))
    assert ones == [435, 465, 885, 915]
    assert {math.prod(real_primes(numtheory.factorize(s))) for s in ones} == {435}
    for row in rows:
        assert int(row["A_n"]) == numtheory.height(int(row["n"]))


def test_cond_asks_height_once_per_row_with_one_memo_per_call(tmp_path, monkeypatch):
    # every row's A(n) comes through the name `height` that cli imports from
    # numtheory, the one a tracer that wraps numtheory.height replaces, with
    # the same memo for every row of a call and a new one for the next call
    calls = []

    def spy(n, memo=None):
        calls.append((n.n, memo))
        return real(n, memo)

    real = cli.height
    assert real is numtheory.height
    monkeypatch.setattr(cli, "height", spy)
    rows = run_cond(tmp_path, "--min", "2", "--max", "400", "--numeric-cap", "0")
    first = calls[0][1]
    assert [n for n, _ in calls] == [int(row["n"]) for row in rows] == list(range(2, 401))
    assert all(memo is first for _, memo in calls)
    calls.clear()
    run_cond(tmp_path, "--min", "2", "--max", "2", "--numeric-cap", "0")
    assert len(calls) == 1 and calls[0][1] is not first


def test_cond_sweep_retains_little_memory(tmp_path):
    # a cap-0 sweep keeps nothing once it returns: its height memo goes
    # with the generator; a cache of factorizations or of series arrays
    # that outlived the call would retain about 0.9 KB a row and pass 4 MB
    # over these 20,000 rows
    out = str(tmp_path / "cond.csv")
    # warm up first: any lazy import is done once per process
    assert cli.main(["cond", "--min", "2", "--max", "30", "--out", out]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["cond", "--min", "2", "--max", "20000", "--numeric-cap", "0",
                         "--out", out]) == 0
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4_000_000, retained


# ---------------------------------------------------------------------------
# bench


def _read_bench(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    return rows[0]


def test_bench_counts_and_ratios(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--mcyclo", "4", "--r", "3", "--qbits", "14",
                   "--trials", "1", "--out", str(out)])
    assert rc == 0
    row = _read_bench(out)
    assert list(row.keys()) == cli.BENCH_HEADER
    assert row["m_total"] == "32"
    q = int(row["q"])
    assert is_prime(q) and (q - 1) % 64 == 0 and q >= 2**13
    for d in (3, 5, 7):  # default generators: first r odd primes, all residues
        assert pow(d, (q - 1) // 2, q) == 1
    assert int(row["ntt_fwd_muls"]) == 16 * 5  # (m/2) log2 m
    assert int(row["hybrid_fwd_muls"]) == 16 * 2 + 32  # (m/2) log2 mc + m
    assert float(row["counted_ratio"]) == pytest.approx(80 / 64, rel=1e-12)
    assert float(row["asymptotic_ratio"]) == pytest.approx(5 / 2, rel=1e-12)
    assert float(row["ntt_swap_ms"]) > 0
    assert float(row["hybrid_swap_ms"]) > 0


def _naive_bench_prime(m_total, quad_d, q_bits):
    # every term of the progression through the full test, no screen
    step = 2 * m_total
    q = (((1 << (q_bits - 1)) // step) + 1) * step + 1
    while q < 1 << 62:
        if is_prime(q) and all(pow(d, (q - 1) // 2, q) == 1 for d in quad_d):
            return q
        q += step


def _bench_prime_grid():
    # m_total from 4 up to 2^17 as r goes from 0 to 13, every q_bits up to
    # r = 12; plus the two CI bench shapes.  r = 13 at 40 bits would take
    # the naive search seconds
    for r in range(14):
        for q_bits in (8, 20, 30, 40) if r < 13 else (30,):
            yield 1 << (2 + 15 * r // 13), r, q_bits
    yield 16 << 12, 12, 30


def test_bench_prime_screen_matches_the_naive_search():
    # the reciprocity screen on q mod d drops no prime the full test keeps
    found = []
    for m_total, r, q_bits in _bench_prime_grid():
        quad_d = tuple(numtheory.first_primes(r, exclude=(2,)))
        q = cli._bench_prime(m_total, quad_d, q_bits)
        assert q == _naive_bench_prime(m_total, quad_d, q_bits), (m_total, r, q_bits)
        found.append(q)
    assert 3169320961 in found and 20666646529 in found
    assert sum(q > 1 << 32 for q in found) == 14


def test_bench_without_a_suitable_prime_exits_2(capsys):
    # m_total = 2^60: the search for q = 1 mod 2^61 starts at 2^62 + 1,
    # already past its 2^62 bound
    rc = cli.main(["bench", "--mcyclo", str(1 << 30), "--r", "30", "--qbits", "62",
                   "--out", "-"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "no suitable prime below 2^62" in captured.err
    assert captured.out == ""


def test_bench_equal_cost_configuration(tmp_path):
    # u = 3, r = 2: counted muls tie (u + r = u + 2)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--mcyclo", "8", "--r", "2", "--qbits", "14",
                     "--trials", "1", "--out", str(out)]) == 0
    row = _read_bench(out)
    assert int(row["ntt_fwd_muls"]) == int(row["hybrid_fwd_muls"])
    assert float(row["counted_ratio"]) == pytest.approx(1.0, rel=1e-12)


def test_bench_pure_cyclotomic_degenerates_to_baseline(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--mcyclo", "16", "--r", "0", "--qbits", "14",
                     "--trials", "1", "--out", str(out)]) == 0
    row = _read_bench(out)
    assert row["ntt_fwd_muls"] == row["hybrid_fwd_muls"]
    assert float(row["counted_ratio"]) == 1.0
    assert float(row["asymptotic_ratio"]) == 1.0


def test_bench_alternates_its_timed_round_trips(tmp_path, monkeypatch):
    # one NTT and one hybrid round trip per trial, so drift of the machine
    # falls on both medians alike; each ring first runs once, untimed, for
    # its op counts
    rings = []
    inner = ringarith.forward
    monkeypatch.setattr(ringarith, "forward",
                        lambda a: rings.append(ringarith.family(a.ctx)) or inner(a))
    assert cli.main(["bench", "--mcyclo", "4", "--r", "2", "--qbits", "14",
                     "--trials", "3", "--out", str(tmp_path / "bench.csv")]) == 0
    assert rings == ["ntt", "hybrid"] * 4


def test_bench_default_configuration_stays_on_uint64(tmp_path):
    # the modulus is the smallest prime above 2^(qbits-1) that splits both
    # rings, not a qbits-bit one: at (16, 12) it has 32 bits, still uint64
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--mcyclo", "16", "--r", "12",
                     "--trials", "1", "--out", str(out)]) == 0
    row = _read_bench(out)
    q = int(row["q"])
    assert q == 3169320961 and 1 << 31 < q < 1 << 32
    assert ringarith.make_context(q, 16, (3,))._fwd.dtype == np.uint64
    assert row["dtype"] == "uint64"


def test_bench_row_records_object_dtype_above_32_bits(tmp_path):
    # one more quadratic prime pushes the modulus to 35 bits, so the timed
    # kernels compute in Python ints, and the row says so
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--mcyclo", "16", "--r", "13",
                     "--trials", "1", "--out", str(out)]) == 0
    row = _read_bench(out)
    assert int(row["q"]) == 20666646529
    assert row["dtype"] == "object"


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "[FAIL]" not in out


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(_checks, "QUICK", [("sabotage", lambda: ["broken"])])
    assert cli.main(["verify"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_ringcond_keeps_no_process_state(tmp_path, capsys):
    # every memo lives and dies with its call: no module holds a functools
    # cache, and a run of each subcommand leaves every module-level dict,
    # list and set as it was
    modules = [importlib.import_module(f"ringcond.{info.name}")
               for info in pkgutil.iter_modules(ringcond.__path__)]
    caches = [(mod.__name__, name) for mod in modules
              for name, obj in vars(mod).items() if hasattr(obj, "cache_clear")]
    assert caches == []

    def containers():
        return {(mod.__name__, name): copy.deepcopy(obj) for mod in modules
                for name, obj in vars(mod).items()
                if not name.startswith("__") and isinstance(obj, (dict, list, set))}

    before = containers()
    out = str(tmp_path / "out.csv")
    for precision in linalg.PRECISIONS:
        assert cli.main(["--precision", precision, "cond", "--min", "2", "--max", "1200",
                         "--out", out]) == 0
    assert cli.main(["bench", "--mcyclo", "8", "--r", "3", "--trials", "1",
                     "--out", out]) == 0
    assert cli.main(["verify"]) == 0
    assert containers() == before


def test_report_check_detects_a_self_consistent_wrong_formula(monkeypatch):
    # doubling the radicand keeps value == float(symbolic), so only a
    # comparison with the formula itself can notice
    def doubled(n):
        rep = real_twisted(n)
        sym = formulas.SymbolicValue(rep.symbolic.coeff, 2 * rep.symbolic.radicand)
        return formulas.BoundReport(kind=rep.kind, value=float(sym), symbolic=sym)

    real_twisted = formulas.cond_exact_twisted
    assert _checks.check_symbolic_reports(30) == []
    monkeypatch.setattr(formulas, "cond_exact_twisted", doubled)
    failures = _checks.check_symbolic_reports(30)
    assert len(failures) == 29 and all("ExactTwisted" in f for f in failures)


def test_cond_columns_check_detects_a_last_bit_change(monkeypatch):
    # one ulp off the twisted value at n = 105 is the whole difference
    def nudged(c):
        cols = real_columns(c)
        if c.n != 105:
            return cols
        return cols._replace(exact_twisted=math.nextafter(cols.exact_twisted, math.inf))

    real_columns = formulas.cond_columns
    assert _checks.check_cond_columns(200) == []
    monkeypatch.setattr(formulas, "cond_columns", nudged)
    failures = _checks.check_cond_columns(200)
    assert len(failures) == 1 and "ExactTwisted column at n=105" in failures[0]


def test_prime_kernel_check_detects_a_last_bit_change(monkeypatch):
    # one ulp off the sum at p = 101, at extended precision only
    def nudged(k, real):
        got = parseval(k, real)
        return np.nextafter(got, real(2)) if k.n == 101 and real is np.longdouble else got

    parseval = embeddings._half_inverse_norm2
    assert _checks.check_prime_kernel_norms(200) == []
    monkeypatch.setattr(embeddings, "_half_inverse_norm2", nudged)
    failures = _checks.check_prime_kernel_norms(200)
    assert len(failures) == 1 and "p=101 at extended" in failures[0]


def test_kaplan_check_detects_a_representative_below_q(monkeypatch):
    # the least prime of r's class with no lower bound: 3*5*13 goes to
    # 3*5*2, 3*5*17 to 3*5*2, 5*7*37 to 5*7*2, all of height 1, not 2
    def below_q(c):
        p, q, r = (p for p, _ in c.factors)
        m = p * q
        return [p, q, min(x for x in range(2, r + 1)
                          if x % m in (r % m, -r % m) and is_prime(x))]

    assert _checks.check_kaplan_representatives(1300) == []
    monkeypatch.setattr(numtheory, "_height_primes", below_q)
    failures = _checks.check_kaplan_representatives(1300)
    assert failures[:2] == ["A(195) = 1 from its representative, 2 from its own series",
                            "A(255) = 1 from its representative, 2 from its own series"]
    assert len(failures) == 7


def test_kaplan_check_detects_a_wrong_lam_leung_term(monkeypatch):
    # Phi_pq's x^1 coefficient, -1 for every pair of primes, flipped to +1:
    # the lower half by Kaplan's lemma goes wrong on each of the 63 ternary
    # kernels up to 1300, from x^r on, where that term of Phi_pq(x^r) lands
    def flipped(p, q):
        c = real(p, q)
        c[1] = -c[1]
        return c

    real = numtheory._binary_cyclotomic
    monkeypatch.setattr(numtheory, "_binary_cyclotomic", flipped)
    failures = _checks.check_kaplan_representatives(1300)
    assert failures[0].startswith("Phi_105 by Kaplan's lemma differs from its Moebius series")
    assert failures[0].endswith(", the first 7")
    assert sum("by Kaplan's lemma" in f for f in failures) == 63


def test_roundtrip_check_detects_corrupted_tables():
    ctx = ringarith.make_context(12289, 8)
    ctx._fwd[3] = ctx._fwd[3] * 2 % ctx.q  # sabotage one twiddle factor
    failures = _checks.check_transform_roundtrips(ctx=ctx)
    assert failures and "ntt" in failures[0]


def test_roundtrip_check_detects_corrupted_diagonal():
    ctx = ringarith.make_context(12289, 1, (2, 3))
    ctx._diag[1] = ctx._diag[1] * 5 % ctx.q
    failures = _checks.check_transform_roundtrips(ctx=ctx)
    assert failures and "wht" in failures[0]


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["cond", "--min", "9", "--max", "3", "--out", "-"],
        ["cond", "--min", "0", "--max", "3", "--out", "-"],
        ["cond", "--min", "1", "--max", "200001", "--out", "-"],  # over limit
        ["cond", "--min", "1", "--max", "3", "--omega", "7", "--out", "-"],
        ["cond", "--min", "1", "--max", "3", "--omega", "x", "--out", "-"],
        ["cond", "--min", "1", "--max", "3", "--numeric-cap", "-1", "--out", "-"],
        ["bench", "--mcyclo", "3", "--r", "1", "--out", "-"],
        ["bench", "--mcyclo", "4", "--r", "-1", "--out", "-"],
        ["bench", "--mcyclo", "4", "--r", "1", "--trials", "0", "--out", "-"],
        ["nonsense"],
        [],
        ["--precision", "quad", "cond", "--min", "2", "--max", "3", "--out", "-"],
        ["bench", "--mcyclo", "4", "--r", "1", "--qbits", "7", "--out", "-"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2


def test_sweep_config_rejects_unknown_precision():
    # the config, not argparse alone, guards callers that build it directly
    with pytest.raises(ValueError, match="unknown precision 'quad'"):
        cli.SweepConfig(2, 3, None, precision="quad")


def test_unwritable_output_exits_2(capsys):
    rc = cli.main(["cond", "--min", "3", "--max", "4", "--numeric-cap", "0",
                   "--out", "/nonexistent-dir/x.csv"])
    assert rc == 2
    assert "cannot open output" in capsys.readouterr().err


@pytest.mark.parametrize("exc,rc", [(RuntimeError, None), (OSError, 2)])
def test_failed_sweep_leaves_existing_output_untouched(tmp_path, monkeypatch, capsys,
                                                       exc, rc):
    out = tmp_path / "out.csv"
    out.write_text("earlier run\n")
    real = formulas.cond_columns

    def failing_at_30(c):
        if c.n == 30:
            raise exc("injected")
        return real(c)

    monkeypatch.setattr(formulas, "cond_columns", failing_at_30)
    argv = ["cond", "--min", "2", "--max", "40", "--numeric-cap", "16", "--out", str(out)]
    if rc is None:
        with pytest.raises(exc, match="injected"):
            cli.main(argv)
    else:
        assert cli.main(argv) == rc
        assert "cannot write output" in capsys.readouterr().err
    assert out.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_output_replaces_file_behind_symlink(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("earlier run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main(["cond", "--min", "3", "--max", "3", "--numeric-cap", "0",
                     "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith(",".join(cli.COND_HEADER))
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_output_to_device_is_written_in_place(monkeypatch):
    def no_rename(*args):
        raise AssertionError(f"renamed over a device: {args}")

    monkeypatch.setattr(cli.os, "replace", no_rename)
    assert cli.main(["cond", "--min", "3", "--max", "3", "--numeric-cap", "0",
                     "--out", os.devnull]) == 0


def test_limit_can_be_raised(tmp_path):
    out = tmp_path / "big.csv"
    rc = cli.main(["cond", "--min", "199990", "--max", "200010",
                   "--limit", "300000", "--numeric-cap", "0", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 21
