"""Cross-check two `ringcond cond` CSVs of one window, double then extended.

    python .github/scripts/check_cond_precisions.py cond_double.csv cond_extended.csv

Columns 1-9 (n through bound_general_over_A) do not depend on the precision
and must match byte for byte.  The numeric columns must be empty in the same
cells and agree within 1e-11 across precisions, numeric_twisted must match
exact_twisted, numeric_power must not exceed bound_refined at either
precision, and on a prime power (omega 1) the twisted cell must be the power
cell as a string: its one twisted factor is the conductor itself.  A failed
assertion exits nonzero.
"""
import csv
import math
import sys



def read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


double, extended = read(sys.argv[1]), read(sys.argv[2])
header = double[0]
assert extended[0] == header
exact = header.index("numeric_power")
assert header[exact:] == ["numeric_power", "numeric_twisted"], header
cells = bounded = prime_powers = 0
for d, e in zip(double[1:], extended[1:], strict=True):
    assert d[:exact] == e[:exact], (d, e)
    d, e = dict(zip(header, d)), dict(zip(header, e))
    for col in ("numeric_power", "numeric_twisted"):
        assert (d[col] == "") == (e[col] == ""), (d["n"], col)
        if d[col]:
            cells += 1
            assert math.isclose(float(d[col]), float(e[col]), rel_tol=1e-11), (d["n"], col)
    for row in (d, e):
        if row["numeric_twisted"]:
            assert math.isclose(float(row["numeric_twisted"]), float(row["exact_twisted"]),
                                rel_tol=1e-11), row
        if row["numeric_power"] and row["bound_refined"]:
            bounded += 1
            assert float(row["numeric_power"]) <= float(row["bound_refined"]), row
        if row["omega"] == "1" and row["numeric_power"] and row["numeric_twisted"]:
            prime_powers += 1
            assert row["numeric_twisted"] == row["numeric_power"], row
print(f"{len(double) - 1} rows match in columns 1-{exact}")
print(f"{cells} numeric cells agree across precisions")
print(f"{bounded} numeric_power cells lie within bound_refined")
print(f"{prime_powers} prime-power numeric_twisted cells equal numeric_power")
