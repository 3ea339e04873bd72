"""Command-line surface: sweep CSV shape and determinism, bench counts and
ratios, verify suites, exit codes, and the precision flag."""
import csv
import hashlib
import io
import math
import os

import numpy as np
import pytest

from ringcond import _checks, cli, embeddings, formulas, ringarith
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
    inner = embeddings.factored_cond
    monkeypatch.setattr(embeddings, "factored_cond",
                        lambda spec, *, real: seen.append(real) or inner(spec, real=real))
    for precision, real in (("extended", np.longdouble), ("double", np.float64)):
        seen.clear()
        _cond_at(tmp_path, precision, 105)
        assert len(seen) == 2 and all(r is real for r in seen)


def test_precision_flag_is_scoped_to_one_call(tmp_path):
    assert cli.main(["--precision", "extended", "cond", "--min", "16", "--max", "16",
                     "--out", str(tmp_path / "ext.csv")]) == 0
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
# largest height below 1e5; recorded before the height series last changed
_COND_EXACT_DIGESTS = {
    (15000, 15100): "0e4cc2b8cdac92895623df43a120bc884138f3ccaa063f4aaccf47272cf47a93",
    (30000, 30100): "d897c730fe4e5ae345368ebded301c105e16dd9245314616e663a1457e08ade0",
    (40700, 40800): "a042c565d4ed9cbf47e41f42027c6373bc5be80685a103eaef8b0208cfe1ef50",
    (81500, 81600): "69c9e3a3e2332c357b7439f7fac87b2b9c3f5377f4135123073cf4b9ca344efe",
    (90000, 90100): "eda391a4cf068361473eb939b4bfd0a1734188333b30a6c8f266127238a8c817",
}


@pytest.mark.parametrize("window", sorted(_COND_EXACT_DIGESTS))
def test_cond_exact_columns_pinned_where_heights_are_large(tmp_path, window):
    out = tmp_path / "cond.csv"
    lo, hi = window
    assert cli.main(["cond", "--min", str(lo), "--max", str(hi),
                     "--numeric-cap", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == hi - lo + 2
    text = "".join(",".join(row[:9]) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == _COND_EXACT_DIGESTS[window]


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
    real = formulas.cond_bound_refined

    def failing_at_30(c):
        if c.n == 30:
            raise exc("injected")
        return real(c)

    monkeypatch.setattr(formulas, "cond_bound_refined", failing_at_30)
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
