"""Workload definitions and their seeded inputs.

Everything a run feeds to ringcond comes from here and depends only on the
workload name and the seed (plus, for the transforms, the modulus the set-up
found).  The parent process uses the same functions to know what each output
should cover.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from oracles import phi

DEFAULT_SEED = 1
# Not used while the benchmark was written or tuned: recheck claims on it.
HOLDOUT_SEED = 7919

SWEEP_MAX = 100_000          # sweep-formulas draws windows inside [2, SWEEP_MAX]
FORMULA_STRATA = 20          # one window per stratum of [2, SWEEP_MAX] per cycle
FORMULA_WIDTH = 50           # conductors per sweep-formulas window
NUMERIC_MAX_N = 2000         # criterion-2 population: n <= 2000 with phi(n) <= 512
NUMERIC_CAP = 512
NUMERIC_STRATA = 24          # phi strata of the population, one conductor each per cycle

SWAP_MCYCLO, SWAP_R = 16, 12  # ringcond bench --mcyclo 16 --r 12: m = 65536
Q_BITS = 30                  # modulus size for the bench prime and the RNS primes
RNS_MCYCLO = (4, 8, 16, 32, 64)
RNS_R = (0, 1, 2, 3)
RNS_LIMBS = 3
RNS_COEFF_BITS = 100         # signed coefficients, wider than the 3-prime product


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "sweep" or "ring"
    why: str
    item: str                # what one counted item is
    precision: str = "double"
    numeric_cap: int = 0
    probe: str = "python"    # reference-speed probe kind, see probe.py


WORKLOADS = {w.name: w for w in (
    Workload("sweep-formulas", "sweep",
             "cond --numeric-cap 0 over windows of [2, 1e5]: height series and "
             "Fraction reports do the work, linear algebra none",
             "CSV row", numeric_cap=0),
    Workload("sweep-numeric", "sweep",
             "cond at cap 512, double, on n <= 2000 with phi <= 512: embedding "
             "build and LAPACK inversion dominate",
             "CSV row", numeric_cap=NUMERIC_CAP, probe="lapack"),
    Workload("sweep-extended", "sweep",
             "cond --precision extended at cap 512 on the criterion-2 population: "
             "the compensated Newton refinement dominates",
             "CSV row", precision="extended", numeric_cap=NUMERIC_CAP, probe="lapack"),
    Workload("ring-swap", "ring",
             "ringcond bench --mcyclo 16 --r 12: NTT round trips at m = 65536 and hybrid "
             "NTT x Hadamard round trips at (16, 12) on one seeded polynomial",
             "round trip"),
    Workload("ring-rns", "ring",
             "small-ring products over a 3-prime RNS, m_cyclo 4..64 and r 0..3: "
             "per-call overhead dominates",
             "RNS product"),
)}


@lru_cache(maxsize=None)
def _phi_strata() -> tuple:
    pop = sorted((phi(n), n) for n in range(2, NUMERIC_MAX_N + 1)
                 if phi(n) <= NUMERIC_CAP)
    k = NUMERIC_STRATA
    return tuple(tuple(n for _, n in pop[len(pop) * i // k:len(pop) * (i + 1) // k])
                 for i in range(k))


def sweep_cycle(name: str, seed: int, index: int) -> list:
    """Windows (lo, hi) of cycle `index`: one per stratum, in seeded order.

    sweep-formulas stratifies [2, SWEEP_MAX] by n, because its row cost grows
    with n; the numeric sweeps stratify the population by phi(n), because a
    row's cost is set by the matrix dimension, and give each drawn conductor a
    window of its own so that no unsampled neighbour adds a matrix.
    """
    rng = random.Random(f"{name}:{seed}:{index}")
    if name == "sweep-formulas":
        span = (SWEEP_MAX - 1) // FORMULA_STRATA
        out = []
        for i in range(FORMULA_STRATA):
            lo = 2 + i * span + rng.randrange(span - FORMULA_WIDTH + 1)
            out.append((lo, lo + FORMULA_WIDTH - 1))
    else:
        out = [(n, n) for n in (rng.choice(s) for s in _phi_strata())]
    rng.shuffle(out)
    return out


def closed_muls(op: str, m: int, m_cyclo: int) -> int:
    """Counted multiplications of one ringarith call on a ring of dimension m:
    (m/2) log2 m for the NTT, plus m for its inverse's scaling, (m/2)
    log2 m_cyclo + m each way for the hybrid, m for a pointwise product."""
    log_m, log_mc = m.bit_length() - 1, m_cyclo.bit_length() - 1
    return {"ntt_forward": m // 2 * log_m, "ntt_inverse": m // 2 * log_m + m,
            "hybrid_forward": m // 2 * log_mc + m, "hybrid_inverse": m // 2 * log_mc + m,
            "pointwise_mul": m}[op]


def swap_input(seed: int, q: int, m: int) -> list:
    rng = random.Random(f"swap:{seed}")
    return [rng.randrange(q) for _ in range(m)]


def rns_products(seed: int) -> list:
    """One product per (m_cyclo, r) shape, seeded order and coefficients."""
    rng = random.Random(f"rns:{seed}")
    bound = 1 << RNS_COEFF_BITS
    out = []
    for mc in RNS_MCYCLO:
        for r in RNS_R:
            m = mc << r
            a = [rng.randrange(-bound, bound) for _ in range(m)]
            b = [rng.randrange(-bound, bound) for _ in range(m)]
            out.append((mc, r, a, b))
    rng.shuffle(out)
    return out
