#!/usr/bin/env python3
"""speclap benchmark: one workload per run, outputs checked by oracles.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 40 --trace 0

Every operation is one in-process `speclap.cli.main(argv)` call reading and
writing files under `.perfbench_work/` in the checkout.  A run sets up (a
fresh interpreter imports speclap, generates the inputs and warms up), then
repeats full passes over the workload until the next pass would overrun
`--seconds` (at least one pass), then checks every output against
`oracles.py`.  `run_s` is the median pass; the latency metrics take each
operation's median over the passes first.  A slow or fast spell of the host
that covers a minority of the passes therefore does not move them.  The last line of standard output is one
JSON object:

* `--trace 0`: the end-to-end metrics of BENCHMARK.json.
* `--trace 1`: untraced passes for half the time, then traced passes for
  the other half; the per-layer metrics of `tracing.PER_LAYER`.  The spans
  are written to `.perfbench_work/traces/`.

The program is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("exhaustive", "verify-batch", "families-designs")

# The matrices are at most 62 x 62 and the load is one closed loop, so a
# second BLAS thread buys little and makes every call depend on a second core
# of a shared host being free.
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # fresh interpreters whose set-up time is the median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {"run_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(ops_per_pass: int) -> float:
    """The highest ladder percentile with at least ten of one pass's
    operations beyond it; 100 (the maximum) when a pass has too few.  It
    depends on the workload alone, so it is the same in every run."""
    return next((p for p in TAIL_LADDER if ops_per_pass - rank(p, ops_per_pass) >= 10), 100.0)


def percentile(values: list[float], p: float) -> float:
    return sorted(values)[rank(p, len(values)) - 1]


def set_up(workload: str, seed: int, work: Path, small: bool = False):
    """Import speclap, generate inputs under the empty directory `work`,
    warm up.  Returns (cli module, workload, warm-up exit codes, seconds
    taken)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import speclap.cli as cli

    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "speclap":
        raise RuntimeError(f"imported speclap from {cli.__file__}, not from {SRC}")
    wl = workloads.build(workload, seed, work / "in", cli.main, small=small)
    warm = work / "warm"
    warm.mkdir(parents=True)
    codes = [run_op(cli, op.args(warm)) for op in wl.warmup]
    return cli, wl, codes, perf_counter() - start


def run_op(cli, argv: list[str]):
    """Exit code of one CLI call; an escaping exception becomes its text."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
        return f"{type(exc).__name__}: {exc}"


def run_pass(cli, ops, out: Path, tracer=None) -> tuple[float, list[float], list]:
    """Wall time, per-op latencies and exit codes of one pass."""
    out.mkdir(parents=True)
    latencies, codes = [], []
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        for i, op in enumerate(ops):
            argv = op.args(out)
            if tracer:
                tracer.op = i
            t = perf_counter()
            codes.append(run_op(cli, argv))
            latencies.append(perf_counter() - t)
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    return wall, latencies, codes


def run_passes(cli, ops, work: Path, label: str, budget: float, make_tracer=None) -> list[dict]:
    """Full passes until the next one would overrun `budget` seconds."""
    passes = []
    start = perf_counter()
    while True:
        tracer = make_tracer() if make_tracer else None
        out = work / f"{label}{len(passes)}"
        wall, latencies, codes = run_pass(cli, ops, out, tracer)
        passes.append({"out": out, "wall": wall, "latencies": latencies, "codes": codes, "tracer": tracer})
        typical = statistics.median(p["wall"] for p in passes)
        if perf_counter() - start + typical > budget:
            return passes


def op_medians(passes: list[dict]) -> list[float]:
    """Each operation's median latency over the passes.  A percentile of
    these rests on every pass, not on the one or two calls of a single pass
    that happen to sit at its rank."""
    return [statistics.median(lat) for lat in zip(*(p["latencies"] for p in passes))]


def check_outputs(ops, out: Path, codes: list) -> list[str]:
    """Oracle verdicts on one pass: a line per failed operation."""
    failures = []
    for op, code in zip(ops, codes):
        if code != 0:
            problem = f"exit code {code}"
        else:
            try:
                problem = op.check(out)
            except Exception as exc:  # malformed output fails the operation, not the benchmark
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{' '.join(op.args(out))}: {problem}")
    return failures


def setup_samples(args, own: float) -> list[float]:
    """This run's set-up time plus that of fresh interpreters doing the same."""
    samples = [own]
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(k)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, metavar="K", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "speclap" / "__init__.py").is_file():
        print(f"error: no speclap sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SPECLAP_TOL", None)

    work = WORK / (args.workload if args.setup_only is None else f"{args.workload}-setup{args.setup_only}")
    if work.exists():
        shutil.rmtree(work)
    if args.setup_only is not None:
        *_, seconds = set_up(args.workload, args.seed, work)
        shutil.rmtree(work)
        print(json.dumps({"setup_s": seconds}))
        return 0

    cli, wl, warm_codes, own_setup = set_up(args.workload, args.seed, work)
    setup_s = statistics.median(setup_samples(args, own_setup))

    if args.trace:
        import tracing

        plain = run_passes(cli, wl.ops, work, "pass", args.seconds / 2)
        traced = run_passes(cli, wl.ops, work, "traced", args.seconds / 2, tracing.Tracer)
        passes = plain + traced
    else:
        passes = run_passes(cli, wl.ops, work, "pass", args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_outputs(wl.warmup, work / "warm", warm_codes)
    for p in passes:
        failures += check_outputs(wl.ops, p["out"], p["codes"])
    attempted = len(wl.warmup) + len(wl.ops) * len(passes)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    ops_per_pass = len(wl.ops)
    print(f"workload {wl.name}: seed {args.seed}, {len(passes)} passes of {ops_per_pass} ops, "
          f"BLAS threads {BLAS_THREADS}, {len(failures)} of {attempted} operations failed")
    print(f"  error_rate = {len(failures) / attempted:.6g} ratio")
    if args.trace:
        metrics = traced_metrics(wl, plain, traced, args.seed)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        tail_p = tail_percentile(ops_per_pass)
        typical = op_medians(passes)
        metrics = {
            "run_s": statistics.median(p["wall"] for p in passes),
            "op_p50_s": statistics.median(typical),
            "op_tail_s": percentile(typical, tail_p),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"op_tail_s is p{tail_p:g} of each pass's {ops_per_pass} operations "
              f"({ops_per_pass - rank(tail_p, ops_per_pass)} beyond it), "
              f"each at its median over {len(passes)} passes")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(wl, plain: list[dict], traced: list[dict], seed: int) -> dict:
    """Per-layer metrics of the traced passes; their spans go to a file."""
    import tracing

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_file = traces / f"{wl.name}-seed{seed}.jsonl"
    spans_file.unlink(missing_ok=True)
    for i, p in enumerate(traced):
        p["tracer"].write(spans_file, i)
    return tracing.layer_metrics(
        [p["tracer"] for p in traced],
        [tracing.report_counts(wl.ops, p["out"]) for p in traced],
        [p["wall"] for p in traced],
        [p["wall"] for p in plain],
    )


if __name__ == "__main__":
    sys.exit(main())
