"""Benchmark of the slrma codec: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload image-search --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/`. With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
it runs every operation twice, untraced and traced, checks that both give the
same container and CSV checksums, and reports the per-layer metrics. The
last line of standard output is the summary JSON; the full record (the
environment, every operation's time, outcome and checksums) is written to
`perfbench/out/<workload>-seed<seed>-trace<0|1>.json`. See README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: one thread keeps timings steady
# on a small shared machine and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import ENTRY, LAYERS, Tracer, installed, layer_metrics  # noqa: E402
from workloads import Outcome, failure_class, lib, make_workloads, op_input  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15       # set-up is repeated and its median reported
PROBE_COPIES = 5         # perturbed copies of Z in the stability probe
PROBE_REL = 1e-15        # their relative perturbation
PROBE_STREAM = 1 << 31   # rng stream of the probe, apart from op indices

# The machine's speed drifts: on a shared 2-core x86-64 VM, a
# fixed ~8 ms kernel flips between ~6 ms and ~9.7 ms many times a second, the
# share of slow time changes from minute to minute, and whole runs ran ~35%
# slower than others. A fixed calibration kernel therefore runs
# CALIBRATIONS_PER_OP times before every set-up and every operation (and once
# around every codec call, see `Tracer.bracket`), and each
# phase's times are rescaled by CALIBRATION_REF_S / (mean kernel time in that
# phase): reported times are seconds at the reference speed, and a change to
# the program moves them exactly as it moves raw time. Raw times are recorded.
CALIBRATION_REF_S = 0.006  # the kernel's time on that VM when it is quiet
CALIBRATIONS_PER_OP = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "decompress_mean_s": "s",
    "rate": "bpp-or-bpfv",
    "distortion": "rmse-or-kg%",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith(("ratio", "spread")) and "iters" not in name:
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


@dataclass
class OpRecord:
    index: int
    wall_s: float                  # not counting calibrations run inside it
    failures: tuple
    outcome: Outcome
    checksums: list
    compress_s: list
    decompress_s: list
    decompress_ref_s: list         # each call rescaled by its own brackets
    brackets: list                 # calibration times around its codec calls
    problems: list
    spans: list = field(default_factory=list, repr=False)
    error: str = ""


def calibrate():
    """Seconds for a fixed mix of small BLAS, eigh, elementwise and interpreter work."""
    rng = np.random.default_rng(0)
    a, z = rng.standard_normal((256, 8)), rng.standard_normal((256, 32))
    start = time.perf_counter()
    for _ in range(100):
        _, v = np.linalg.eigh(a.T @ a)
        a = np.where(np.abs(a) > 0.1, a, 0.0) + 1e-9 * (z @ (z.T @ (a @ v)))
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def calibrate_into(cals):
    cals.extend(calibrate() for _ in range(CALIBRATIONS_PER_OP))


def speed_scale(cals):
    """Factor that takes times measured alongside `cals` to the reference speed."""
    return CALIBRATION_REF_S / statistics.fmean(cals)


def set_up(workload):
    """Re-import the package and build the corpus, several times.

    Returns (set-up times, synthesis times, calibrations, corpus).
    Re-importing counts work a change might move into module import as
    set-up time.
    """
    totals, synths, cals = [], [], []
    for _ in range(SETUP_REPEATS):
        calibrate_into(cals)
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == "slrma" or m.startswith("slrma.")]:
            del sys.modules[name]
        importlib.import_module("slrma.sweep")  # the package and every layer used
        mid = time.perf_counter()
        corpus = workload.corpus()
        end = time.perf_counter()
        totals.append(end - start)
        synths.append(end - mid)
    return totals, synths, cals, corpus


def check(workload, ds, outcome, decodes):
    """Problems with one successful operation's output (empty when correct)."""
    problems = []
    if not decodes:
        problems.append("no decompress call")
    for span in decodes:
        if span.info["shapes"] != workload.decoded_shape(ds):
            problems.append(f"decoded shapes {span.info['shapes']}")
        if not span.info["finite"]:
            problems.append("decoded output is not finite")
    if not (outcome.rate is not None and outcome.rate > 0.0):
        problems.append(f"rate {outcome.rate}")
    if not (outcome.distortion is not None
            and 0.0 <= outcome.distortion <= workload.ceiling):
        problems.append(f"distortion {outcome.distortion} above {workload.ceiling}")
    return problems


def run_op(workload, ds, index, tracer, keep_spans=False):
    """One closed-loop operation; a failure is recorded, never retried."""
    start = time.perf_counter()
    error = ""
    try:
        outcome = workload.op(ds)
        failures = outcome.failures
    except Exception as exc:  # noqa: BLE001 - every op must be accounted for
        outcome, failures = Outcome(), (failure_class(exc),)
        error = "".join(traceback.format_exception_only(exc)).strip()
    wall = time.perf_counter() - start
    spans = tracer.take()
    compress = [s for s in spans if s.name == "codec.compress" and s.error is None]
    decodes = [s for s in spans if s.name == "codec.decompress" and s.error is None]
    return OpRecord(
        index=index,
        wall_s=wall - sum(sum(s.brackets) for s in spans),
        failures=tuple(failures),
        outcome=outcome,
        checksums=[s.info["sha256"] for s in compress] + list(outcome.checksums),
        compress_s=[s.duration for s in compress],
        decompress_s=[s.duration for s in decodes],
        decompress_ref_s=[s.duration * CALIBRATION_REF_S / statistics.fmean(s.brackets)
                          for s in decodes if s.brackets],
        brackets=[b for s in spans for b in s.brackets],
        problems=[] if failures else check(workload, ds, outcome, decodes),
        spans=spans if keep_spans else [],
        error=error,
    )


def stability_probe(first_solve, seed):
    """Re-solve one (Z, config) on PROBE_COPIES copies of Z perturbed at PROBE_REL.

    Returns (p_B spread, iteration spread, converged share) over the
    unperturbed solve and its copies.
    """
    z, cfg = first_solve
    solve = lib("solver").slrma_solve
    rng = np.random.default_rng([seed, PROBE_STREAM])
    inputs = [z] + [z * (1.0 + PROBE_REL * rng.standard_normal(z.shape))
                    for _ in range(PROBE_COPIES)]
    facts = []
    for zi in inputs:
        try:
            facts.append(solve(zi, cfg))
        except Exception:  # noqa: BLE001 - a raising solve counts as not converged
            facts.append(None)
    done = [f for f in facts if f is not None]
    pbs = [f.p_b_achieved for f in done]
    iters = [f.iterations for f in done]
    converged = sum(1 for f in done if f.converged) / len(facts)
    if not done:
        return None, None, converged
    return max(pbs) - min(pbs), float(max(iters) - min(iters)), converged


def pooled(records):
    """All spans of several operations in one list, parents re-indexed."""
    spans = []
    for record in records:
        offset = len(spans)
        for span in record.spans:
            if span.parent >= 0:
                span.parent += offset
            spans.append(span)
    return spans


def git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _mean(values):
    return float(statistics.fmean(values)) if values else None


def _p50(values):
    return float(statistics.median(values)) if values else None


def measure(workload, corpus, seed, seconds, trace):
    """The closed loop.

    Returns (records, traced records, calibration times, loop
    seconds, the first top-level solve's (Z, config) for the stability probe).
    """
    records, traced, cals = [], [], []
    entry_tracer, layer_tracer = Tracer(bracket=calibrate), Tracer()
    start = time.perf_counter()
    deadline = start + seconds
    spent = []  # seconds per loop pass; the next pass starts only if one fits
    index = 0
    while index == 0 or time.perf_counter() + statistics.median(spent) <= deadline:
        begun = time.perf_counter()
        ds = op_input(corpus, seed, index)
        calibrate_into(cals)
        with installed(entry_tracer, ENTRY):
            records.append(run_op(workload, ds, index, entry_tracer))
        if trace:
            with installed(layer_tracer, LAYERS):
                traced.append(run_op(workload, ds, index, layer_tracer, keep_spans=True))
        spent.append(time.perf_counter() - begun)
        index += 1
    return records, traced, cals, time.perf_counter() - start, layer_tracer.first_solve


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns the full result record."""
    workload = make_workloads(tiny)[name]
    setups, synths, setup_cals, corpus = set_up(workload)
    records, traced, cals, loop_s, first_solve = measure(workload, corpus, seed, seconds, trace)
    problems = [f"op {r.index}: {p}" for r in records for p in r.problems]
    extra = {}
    failures = {}
    for r in (traced if trace else records):
        for f in r.failures:
            failures[f] = failures.get(f, 0) + 1
    if trace:
        for a, b in zip(records, traced):
            if a.checksums != b.checksums or a.failures != b.failures:
                problems.append(f"op {a.index}: traced run changed checksums or outcome")
            problems.extend(f"op {b.index} (traced): {p}" for p in b.problems)
        metrics = layer_metrics(pooled(traced), len(traced))
        pb_spread, iters_spread, probe_ok = (
            stability_probe(first_solve, seed) if first_solve else (None, None, None))
        untyped = sum(1 for r in traced for f in r.failures if f.startswith("untyped:"))
        metrics.update({
            "solver.pb_spread": pb_spread,
            "solver.iters_spread": iters_spread,
            "solver.perturb_converged_ratio": probe_ok,
            "codec.failures_untyped": float(untyped),
            "datasets.synth_s": statistics.median(synths),
            "trace.overhead_ratio": (sum(r.wall_s for r in traced)
                                     / sum(r.wall_s for r in records)),
        })
        units = {k: layer_unit(k) for k in metrics}
        counted = traced
    else:
        ok = [r for r in records if not r.failures]
        raw = {"setup_s": _p50(setups),
               "op_p50_s": _p50([r.wall_s for r in ok]),
               "compress_p50_s": _p50([t for r in ok for t in r.compress_s]),
               "decompress_mean_s": _mean([t for r in ok for t in r.decompress_s])}
        op_cals = cals + [b for r in records for b in r.brackets]
        loop_scale = speed_scale(op_cals)
        metrics = {
            "setup_s": raw["setup_s"] * speed_scale(setup_cals),
            "op_p50_s": raw["op_p50_s"] and raw["op_p50_s"] * loop_scale,
            # A decompress call can be shorter than one of the machine's fast or
            # slow spells, so each is rescaled by the kernel run right before
            # and after it rather than by the phase's mean.
            "decompress_mean_s": _mean([t for r in ok for t in r.decompress_ref_s]),
            "rate": _mean([r.outcome.rate for r in ok]),
            "distortion": _mean([r.outcome.distortion for r in ok]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        counted = records
        # Mean-based, so the slow tail of chaotic solves makes it too noisy
        # for a bounded metric; it goes to the record, not the summary.
        extra["samples_per_s"] = len(ok) * workload.samples(corpus) / loop_s
        # Compress is ~all of an image operation, so op_p50_s carries it; on
        # mesh-sweep its few short calls per run spread too widely for a bound.
        extra["compress_p50_s"] = raw["compress_p50_s"] and raw["compress_p50_s"] * loop_scale
        extra["raw_times"] = raw
        extra["calibration_s"] = {"setup": setup_cals, "ops": op_cals}
    failed = sum(1 for r in counted if r.failures)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": not problems,
        "problems": problems,
        "attempted": len(counted),
        "failed": failed,
        "failed_ratio": failed / len(counted),
        "failures_by_class": failures,
        "loop_s": loop_s,
        **extra,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops": [
            {"index": r.index, "wall_s": r.wall_s, "failures": list(r.failures),
             "error": r.error, "rate": r.outcome.rate,
             "distortion": r.outcome.distortion, "compress_s": r.compress_s,
             "decompress_s": r.decompress_s, "checksums": r.checksums,
             **({"traced_wall_s": t.wall_s, "traced_checksums": t.checksums}
                if trace else {})}
            for r, t in zip(records, traced if trace else records)
        ],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slrma" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'slrma'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    importlib.import_module("slrma")
    names = make_workloads().keys()
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(names)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for key in ("environment", "failures_by_class", "problems"):
        print(f"{key}: {json.dumps(result[key])}")
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']!r:>24} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
