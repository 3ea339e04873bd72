"""Entry point of the ringcond benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every workload runs in fresh interpreters
with ringcond imported from ./src and the BLAS thread count pinned:

  * trace 0: set-up is timed in several interpreters that stop when ready,
    then one interpreter times whole rounds of the workload for S seconds;
    the end-to-end metrics are printed;
  * trace 1: the same timed run, then a traced run of exactly the same
    rounds; the per-layer metrics (self time per item, counts) and the
    tracing overhead are printed.

Outputs are checked outside the timed region against independent oracles;
any failed check makes the run exit 1.  The last line of standard output is
one JSON object; a record with provenance and digests goes to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = 1           # pinned for this process and every child interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import oracles                                      # noqa: E402  (after the BLAS pin)
import workloads as wl                              # noqa: E402
from probe import REF_SECONDS, probe                # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7          # set-up-only interpreters per trace-0 run
RUN_BUDGET = 170.0         # seconds for one workload's interpreters; a run must end within 180
A_SAMPLE = 24              # rows per run whose height A_n is recomputed by the oracle
A_MAX_RAD = 10_000         # ... chosen among rows with a radical at most this large
EXACT_TOL, NUMERIC_TOL = 1e-11, 1e-9   # CSV rounding; the acceptance tests' numeric tolerance

COND_COLUMNS = ["n", "omega", "phi", "rad", "A_n", "exact_closed", "exact_twisted",
                "bound_refined", "bound_general_over_A", "numeric_power",
                "numeric_twisted"]
EXACT_COLUMNS = 9          # leading columns that do not come from floating linear algebra

COUNTED_OPS = ("ntt_forward", "ntt_inverse", "hybrid_forward", "hybrid_inverse",
               "pointwise_mul")
END_TO_END = {"setup_s": "s", "items_per_ref_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "numtheory.sieve.s": "s",
    "numtheory.factorize.s": "s", "numtheory.factorize.calls": "count",
    "numtheory.height.s": "s", "numtheory.height.calls": "count",
    "numtheory.height.radicals": "count",
    "formulas.report.s": "s", "formulas.report.calls": "count",
    "formulas.report.inapplicable": "count",
    "embeddings.matrix.s": "s", "embeddings.matrix.calls": "count",
    "embeddings.matrix.bytes": "B",
    "linalg.invert.s": "s", "linalg.invert.calls": "count", "linalg.invert.n3": "count",
    "linalg.invert.ns_per_n3": "ns", "linalg.frobenius.s": "s",
    "linalg.max_rel_dev": "ratio",
    "cli.main.s": "s", "cli.cond.s": "s", "cli.cond.bytes": "B",
    **{f"ringarith.{op}.{k}": u for op in COUNTED_OPS
       for k, u in (("s", "s"), ("calls", "count"), ("muls", "count"),
                    ("adds", "count"), ("ns_per_mul", "ns"))},
    **{f"ringarith.{op}.{k}": u
       for op in ("poly", "rns_decompose", "rns_reconstruct", "make_context")
       for k, u in (("s", "s"), ("calls", "count"))},
    "ringarith.swap_counted_ratio": "ratio", "ringarith.swap_wall_ratio": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}
SETUP_LAYERS = ("numtheory.sieve.s", "ringarith.make_context.s")
SELF_TIMES = [k for k, u in PER_LAYER.items()
              if u == "s" and k not in SETUP_LAYERS and not k.startswith("trace.")]


# ---------------------------------------------------------------------------
# child interpreters

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list, deadline: float):
    """Run child.py, killing it at `deadline` (perf_counter time); returns
    (seconds from spawn to "ready", exit code)."""
    t0 = time.perf_counter()
    timeout = max(deadline - t0, 1.0)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, args)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0 if line.strip() == "ready" else None
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rest:
        sys.stderr.write(rest)
    return ready, code


def timed_run(name, seed, seconds, trace, tag, deadline, rounds=None):
    path = OUT / f"{tag}-trace{trace}.json"
    args = ["run", name, seed, seconds, trace, path] + ([rounds] if rounds else [])
    ready, code = spawn(args, deadline)
    result = None
    if code == 0 and ready is not None and path.exists():
        result = json.loads(path.read_text())
        result["csv"] = Path(str(path) + ".csv").read_text()
    for p in (path, Path(str(path) + ".csv"), Path(str(path) + ".csv.tmp")):
        p.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------------------
# output checks

def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_sweep(w, seed, result, rng) -> dict:
    """Check every CSV row of a sweep run; returns attempted/failed/digests."""
    stats = {"attempted": 0, "failed": 0, "failures": [], "max_rel_dev": 0.0}

    def fail(n, what):
        stats["failed"] += 1
        if len(stats["failures"]) < 20:
            stats["failures"].append(f"n={n}: {what}")

    chunks = result["csv"].split("#window ")[1:]
    first_cycle = len(wl.sweep_cycle(w.name, seed, 0))
    expected = []
    index = 0
    while len(expected) < len(result["windows"]):
        expected += wl.sweep_cycle(w.name, seed, index)
        index += 1
    exact_digest, csv_digest = hashlib.sha256(), hashlib.sha256()
    height_rows = []
    for k, ((lo, hi, rc), chunk) in enumerate(zip(result["windows"], chunks)):
        stats["attempted"] += hi - lo + 1
        text = chunk.partition("\n")[2]
        rows = list(csv.reader(text.splitlines()))
        if (lo, hi) != tuple(expected[k]) or rc != 0 or not rows or rows[0] != COND_COLUMNS:
            fail(lo, f"window [{lo}, {hi}] exit {rc}: missing or not the seeded window")
            stats["failed"] += hi - lo
            continue
        rows = rows[1:]
        if [r[0] for r in rows] != [str(n) for n in range(lo, hi + 1)]:
            fail(lo, f"window [{lo}, {hi}] rows do not cover it")
            stats["failed"] += hi - lo
            continue
        if k < first_cycle:
            for r in rows:
                exact_digest.update((",".join(r[:EXACT_COLUMNS]) + "\n").encode())
                csv_digest.update((",".join(r) + "\n").encode())
        for r in rows:
            problem = _check_row(w, r, stats, height_rows)
            if problem:
                fail(r[0], problem)
    for r in rng.sample(height_rows, min(A_SAMPLE, len(height_rows))):
        want = oracles.cyclotomic_height(int(r[0]))
        if int(r[4]) != want:
            fail(r[0], f"A_n {r[4]} != oracle {want}")
    stats["digest_exact"] = exact_digest.hexdigest()
    stats["digest_csv"] = csv_digest.hexdigest()
    return stats


def _check_row(w, r, stats, height_rows):
    if len(r) != len(COND_COLUMNS):
        return "wrong column count"
    n = int(r[0])
    f = oracles.factor(n)
    ph, rd = oracles.phi(n), oracles.rad(n)
    if (int(r[1]), int(r[2]), int(r[3])) != (len(f), ph, rd):
        return f"omega/phi/rad {r[1:4]} != {(len(f), ph, rd)}"
    if int(r[4]) < 1 or (len(f) <= 2 and int(r[4]) != 1):
        return f"height {r[4]} impossible for omega {len(f)}"
    if len(f) >= 3 and rd <= A_MAX_RAD:
        height_rows.append(r)
    closed, twisted = oracles.closed_power(n), oracles.closed_twisted(n)
    if (closed is None) != (r[5] == ""):
        return "exact_closed present where the closed form does not apply, or missing"
    if closed is not None and _rel(float(r[5]), closed) > EXACT_TOL:
        return f"exact_closed {r[5]} != {closed!r}"
    if _rel(float(r[6]), twisted) > EXACT_TOL:
        return f"exact_twisted {r[6]} != {twisted!r}"
    if float(r[7]) < float(r[6]):
        return f"bound_refined {r[7]} below exact_twisted {r[6]}"
    if (0 < ph <= w.numeric_cap) != (r[9] != "" and r[10] != ""):
        return "numeric columns present outside the cap, or missing inside it"
    if r[9]:
        power, tw = float(r[9]), float(r[10])
        devs = [_rel(tw, twisted)] + ([_rel(power, closed)] if closed is not None else [])
        stats["max_rel_dev"] = max(stats["max_rel_dev"], *devs)
        if max(devs) > NUMERIC_TOL:
            return f"numeric {r[9]}/{r[10]} off its closed form by {max(devs):.2e}"
        if power > float(r[7]):
            return f"numeric_power {r[9]} above bound_refined {r[7]}"
    return None


def check_spans(spans) -> list:
    """Counted multiplications of every traced transform call against the
    closed forms; returns a description per mismatch."""
    bad = []
    for name, _, phase, _, _, extra in spans:
        op = name.partition(".")[2]
        if op not in COUNTED_OPS or phase != "work":
            continue
        muls, _, m, mc = extra
        want = wl.closed_muls(op, m, mc)
        if muls != want:
            bad.append(f"{op} at m={m}: {muls} muls, closed form {want}")
    return bad


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(spans, items: int) -> dict:
    """Self seconds and counts per item for the timed work; totals of the
    set-up spans (sieve build, ring contexts)."""
    child = [0.0] * len(spans)
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg = {}
    for i, (name, _, phase, t0, t1, extra) in enumerate(spans):
        setup_layer = f"{name}.s" in SETUP_LAYERS
        if phase != ("setup" if setup_layer else "work"):
            continue
        a = agg.setdefault(name, {"s": 0.0, "calls": 0, "x": []})
        a["s"] += (t1 - t0) - child[i]
        a["calls"] += 1
        if extra is not None:
            a["x"].append(extra)

    def get(name):
        return agg.get(name, {"s": 0.0, "calls": 0, "x": []})

    per = 1.0 / items
    out = {}
    for name in ("numtheory.factorize", "numtheory.height", "formulas.report",
                 "embeddings.matrix", "linalg.invert", "cli.main", "cli.cond",
                 *(f"ringarith.{op}" for op in COUNTED_OPS + (
                     "poly", "rns_decompose", "rns_reconstruct"))):
        out[f"{name}.s"] = get(name)["s"] * per
        out[f"{name}.calls"] = get(name)["calls"] * per
    out["numtheory.sieve.s"] = get("numtheory.sieve")["s"]
    out["ringarith.make_context.s"] = get("ringarith.make_context")["s"]
    out["ringarith.make_context.calls"] = get("ringarith.make_context")["calls"]
    out["linalg.frobenius.s"] = get("linalg.frobenius")["s"] * per
    out["numtheory.height.radicals"] = sum(x[0] for x in get("numtheory.height")["x"]) * per
    out["formulas.report.inapplicable"] = sum(x[0] for x in get("formulas.report")["x"]) * per
    out["embeddings.matrix.bytes"] = sum(d * d * b for d, b in get("embeddings.matrix")["x"]) * per
    n3 = sum(d ** 3 for (d,) in get("linalg.invert")["x"])
    out["linalg.invert.n3"] = n3 * per
    out["linalg.invert.ns_per_n3"] = get("linalg.invert")["s"] * 1e9 / n3 if n3 else 0.0
    out["cli.cond.bytes"] = sum(x[0] for x in get("cli.cond")["x"]) * per
    for op in COUNTED_OPS:
        a = get(f"ringarith.{op}")
        muls = sum(x[0] for x in a["x"])
        out[f"ringarith.{op}.muls"] = muls * per
        out[f"ringarith.{op}.adds"] = sum(x[1] for x in a["x"]) * per
        out[f"ringarith.{op}.ns_per_mul"] = a["s"] * 1e9 / muls if muls else 0.0
    return out


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "commit": commit, "source_sha256": src.hexdigest()[:16]}


def _normalised_setups(name: str, seed: int, deadline: float) -> list:
    """Set-up times in reference seconds: spawn to "ready" of set-up-only
    interpreters, scaled by probes taken just before and after each."""
    out = []
    for _ in range(SETUP_SAMPLES):
        before = probe("python")
        ready, code = spawn(["setup", name, seed, 0, 0, "-"], deadline)
        if ready is not None and code == 0:
            out.append(ready * REF_SECONDS["python"] * 2 / (before + probe("python")))
    return out


def _check(w, seed, result, rng, record) -> list:
    """Run every output check on one interpreter's result; sets its
    attempted/failed counts and returns the failure descriptions."""
    failures = list(result["failures"])
    if w.kind == "sweep":
        stats = check_sweep(w, seed, result, rng)
        result.update(attempted=stats["attempted"], max_rel_dev=stats["max_rel_dev"])
        result["failed"] += stats["failed"]
        failures += stats["failures"]
        record.update(digest_exact=stats["digest_exact"], digest_csv=stats["digest_csv"])
    else:
        result.update(attempted=result["items"], max_rel_dev=0.0)
        record.update(digest_outputs=result["digest"], counts=result["counts"],
                      muls_per_round=sum(result["counts"].values()))
        if result["swap_ms"]:
            ms = {k: statistics.median(v) for k, v in result["swap_ms"].items()}
            record.update(swap_ms=ms, swap_samples=len(result["swap_ms"]["ntt"]),
                          swap_wall_ratio=ms["ntt"] / ms["hybrid"],
                          swap_counted_ratio=swap_counted_ratio(result["counts"]))
    if result["spans"]:
        bad = check_spans(result["spans"])
        result["failed"] += len(bad)
        failures += bad
    result["failed"] = min(result["failed"], result["attempted"])
    return failures


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    w = wl.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_BUDGET
    setups = [] if trace else _normalised_setups(name, seed, deadline)
    runs = [timed_run(name, seed, seconds, 0, tag, deadline)]
    if trace and runs[0]:
        runs.append(timed_run(name, seed, seconds, 1, tag, deadline,
                              rounds=runs[0]["rounds"]))
    record = {"workload": name, "trace": trace, "seconds": seconds,
              **provenance(seed), "blas_threads": BLAS_THREADS}
    failures = []
    rng = random.Random(f"check:{seed}")
    for result in filter(None, runs):
        record.update({k: result[k] for k in ("python", "numpy", "blas", "q")})
        failures += _check(w, seed, result, rng, record)
    if None in runs or len(runs) < 1 + trace:
        # a crashed interpreter fails every item of at least one round
        failures.append("a run interpreter failed; every item counts as failed")
        attempted = failed = max(sum(r["attempted"] for r in filter(None, runs)),
                                 items_per_round(w, seed))
        metrics = {}
    else:
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = (traced_metrics if trace else end_to_end_metrics)(runs, setups, record)
    record.update(attempted=attempted, failed=failed, failures=failures[:20],
                  metrics=metrics)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def items_per_round(w, seed: int) -> int:
    if w.kind == "sweep":
        return sum(hi - lo + 1 for lo, hi in wl.sweep_cycle(w.name, seed, 0))
    return len(wl.rns_products(seed)) if w.name == "ring-rns" else 2


def swap_counted_ratio(counts) -> float:
    """The bench's counted-multiplication ratio, forward NTT over forward hybrid."""
    return counts["ntt forward"] / counts["hybrid forward"]


def end_to_end_metrics(runs, setups, record) -> dict:
    base = runs[0]
    record.update(setup_samples_ref_s=setups, items=base["items"], rounds=base["rounds"],
                  timed_wall_s=base["seconds"], timed_ref_s=base["ref_seconds"],
                  items_per_wall_s=statistics.median(base["round_rates"]),
                  round_ref_rates=base["round_ref_rates"])
    return {"setup_s": statistics.median(setups),
            "items_per_ref_s": statistics.median(base["round_ref_rates"]),
            "peak_rss_mb": base["rss_kb"] / 1024.0}


def traced_metrics(runs, setups, record) -> dict:
    base, traced = runs
    items = traced["items"]
    metrics = layer_metrics(traced["spans"], items)
    untraced_ref = base["ref_seconds"] / base["items"]
    metrics["trace.overhead_s"] = traced["ref_seconds"] / items - untraced_ref
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_ref
    metrics["linalg.max_rel_dev"] = max(r["max_rel_dev"] for r in runs)
    ntt_s = metrics["ringarith.ntt_forward.s"] + metrics["ringarith.ntt_inverse.s"]
    hyb_s = metrics["ringarith.hybrid_forward.s"] + metrics["ringarith.hybrid_inverse.s"]
    swapping = traced["swap_ms"] and hyb_s
    metrics["ringarith.swap_counted_ratio"] = (swap_counted_ratio(traced["counts"])
                                               if swapping else 0.0)
    metrics["ringarith.swap_wall_ratio"] = ntt_s / hyb_s if swapping else 0.0
    record.update(items=items, rounds=traced["rounds"],
                  self_sum_s_per_item=sum(v for k, v in metrics.items() if k in SELF_TIMES),
                  traced_wall_s_per_item=traced["seconds"] / items,
                  untraced_wall_s_per_item=base["seconds"] / base["items"])
    return {k: metrics[k] for k in PER_LAYER}


def report(rec: dict, out=sys.stdout):
    units = PER_LAYER if rec["trace"] else END_TO_END
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"({wl.WORKLOADS[rec['workload']].item}s)", file=out)
    print(f"   cpu {rec['cpu']}, nproc {rec['nproc']}, python {rec.get('python')}, "
          f"numpy {rec.get('numpy')}, blas {rec.get('blas')} x{rec['blas_threads']} threads, "
          f"commit {rec['commit']}, src {rec['source_sha256']}", file=out)
    for k, v in rec["metrics"].items():
        print(f"   {k:34s} {v:>16.6g} {units[k]}", file=out)
    if not rec["trace"] and rec["metrics"]:
        print(f"   wall clock: {rec['items_per_wall_s']:.6g} items/s (median of "
              f"{rec['rounds']} rounds), {rec['items']} items in {rec['timed_wall_s']:.2f} s "
              f"= {rec['timed_ref_s']:.2f} reference s", file=out)
    if rec["trace"] and rec["metrics"]:
        print(f"   per item: self times sum {rec['self_sum_s_per_item']:.6g} s = traced wall "
              f"{rec['traced_wall_s_per_item']:.6g} s; untraced wall "
              f"{rec['untraced_wall_s_per_item']:.6g} s; overhead "
              f"{rec['metrics']['trace.overhead_s']:.3g} reference s", file=out)
    for k in ("digest_exact", "digest_csv", "digest_outputs", "muls_per_round"):
        if k in rec:
            print(f"   {k} {rec[k]}", file=out)
    if "swap_ms" in rec:
        print(f"   median round trip over {rec['swap_samples']} samples: ntt_swap_ms "
              f"{rec['swap_ms']['ntt']:.1f}, hybrid_swap_ms {rec['swap_ms']['hybrid']:.1f} "
              f"(wall clock); ratio {rec['swap_wall_ratio']:.3f} against counted "
              f"{rec['swap_counted_ratio']:.4g}; muls {rec['counts']}", file=out)
    print(f"   failed {rec['failed']} of {rec['attempted']} "
          f"(failed_frac {rec['failed'] / rec['attempted']:.3g})", file=out)
    for f in rec["failures"]:
        print(f"   FAILED {f}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                    help=f"input seed (default {wl.DEFAULT_SEED}; {wl.HOLDOUT_SEED} is held "
                         f"out for rechecking claimed gains)")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ringcond" / "cli.py").is_file():
        print(f"no ringcond sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    recs = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for rec in recs:
        report(rec)
    ok = all(r["failed"] == 0 for r in recs)
    if len(recs) == 1:
        metrics = {k: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[k]}
                   for k, v in recs[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v,
                                             "unit": (PER_LAYER if args.trace else END_TO_END)[k]}
                   for r in recs for k, v in r["metrics"].items()}
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in recs),
                      "failed": sum(r["failed"] for r in recs), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
