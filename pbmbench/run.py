"""Benchmark of the pbm command line: checked answers per second.

    python3 pbmbench/run.py --workload feasible --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each operation is one in-process call of ``pbm.cli.main(argv)``
on JSON files this script wrote, with stdout and stderr captured, exactly
as a user would type the command.  Operations run one after another in a
closed loop (one client, one process, no threads), in whole rounds of the
workload's twenty slots: at least ``MIN_ROUNDS``, and more while another
round of the mean length still ends within ``--seconds``.  Every answer
is checked after the loop.

On the shared 2-core host the benchmark was tuned on, the speed of Python
code drifts by a quarter or more within minutes, and the drift moves
every timing alike.  So a fixed reference loop of the same kind of Python
work (small tuples, dicts, lists) is timed between operations, and every
end-to-end time is scaled to the machine speed at which that loop takes
``REF_NOMINAL_S``: an operation's time is its wall time times
``REF_NOMINAL_S`` over the mean of the reference times just before and
just after it.  The traced run also reports the unscaled wall figures and
the reference time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
``TRACE_ROUNDS`` rounds untraced and then traced, and prints the per-layer
metrics of the traced pass; spans go to ``.pbmbench/`` in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 unless the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".pbmbench")
# The script's own directory would shadow standard modules; import the package from the root.
sys.path[0] = ROOT

from pbmbench import check, workloads  # noqa: E402
from pbmbench.tracer import Tracer  # noqa: E402

MIN_ROUNDS = 5  # 100 operations: at least 10 samples beyond the 90th percentile
TRACE_ROUNDS = 3  # traced once and untraced once, so a traced run lasts about as long
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
REF_NOMINAL_S = 0.004  # the reference loop's usual wall time on the tuning machine

# Child for setup_s: a fresh interpreter imports pbm.cli, runs the warm-up
# operation, and prints its exit code and the (system-wide, monotonic) clock.
PROBE = r"""
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import pbm.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = pbm.cli.main(sys.argv[2:])
print(rc, time.perf_counter())
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def call_cli(argv: list[str]) -> tuple["int | None", str, float, "str | None"]:
    """(exit code, stdout, wall seconds, crash) of one in-process CLI call."""
    main = sys.modules["pbm.cli"].main
    out, err = io.StringIO(), io.StringIO()
    crash = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # RecursionError included: a crash is a failed operation
        crash = repr(exc)[:300]
    return rc, out.getvalue(), time.perf_counter() - t0, crash


def reference() -> float:
    """Wall time of a fixed piece of Python work, a gauge of the machine's current speed."""
    t0 = time.perf_counter()
    for _ in range(8):
        xs = [(i, i * 2, str(i)) for i in range(2000)]
        d = {x[0]: x for x in xs}
        sum(len(v[2]) for v in d.values())
    return time.perf_counter() - t0


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def measure_setup(argv: list[str], want_rc: int) -> float:
    """Median scaled time from a fresh interpreter to a finished warm-up operation."""
    times = []
    for _ in range(SETUP_PROBES):
        ref_before = reference()
        t0 = time.perf_counter()
        try:
            child = subprocess.run(
                [sys.executable, "-c", PROBE, SRC, *argv],
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"setup probe ran past {PROBE_TIMEOUT_S} s") from None
        fields = child.stdout.split()
        if len(fields) != 2 or fields[0] != str(want_rc):
            raise BenchError(f"setup probe printed {child.stdout.strip()!r}, expected exit code {want_rc}")
        times.append(scaled(float(fields[1]) - t0, ref_before, reference()))
    return statistics.median(times)


class Results:
    """Outcomes of executed operations, checked after the timed loop."""

    def __init__(self) -> None:
        self.samples: list[tuple] = []  # (op, rc, stdout, wall seconds, crash)
        self._verdicts: dict = {}
        gc.collect()
        self.refs = [reference()]  # refs[i] is timed just before sample i, refs[i + 1] just after

    def run(self, op, tracer: "Tracer | None" = None) -> None:
        if tracer is not None:
            tracer.op = len(self.samples)
            tracer.enabled = True
        try:
            rc, stdout, seconds, crash = call_cli(op.argv)
        finally:
            if tracer is not None:
                tracer.enabled = False
        self.samples.append((op, rc, stdout, seconds, crash))
        gc.collect()
        self.refs.append(reference())

    def verdict(self, op, rc, stdout, crash) -> "str | None":
        if crash is not None:
            return f"raised {crash}"
        key = (id(op), rc, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = check.check(op.want, rc, stdout)
        return self._verdicts[key]

    def failures(self) -> list[tuple[str, str]]:
        out = []
        for op, rc, stdout, _, crash in self.samples:
            reason = self.verdict(op, rc, stdout, crash)
            if reason is not None:
                out.append((op.label, reason))
        return out

    def wall(self) -> list[float]:
        return [s[3] for s in self.samples]

    def seconds(self) -> list[float]:
        """Operation times scaled to the reference machine speed."""
        return [scaled(s[3], self.refs[i], self.refs[i + 1]) for i, s in enumerate(self.samples)]


def typical_rate(times: list[float], slots: int, answered_share: float) -> float:
    """Checked answers per second of a typical round.

    Each slot costs its median over the rounds run, so a stretch of a
    busier or quieter machine moves at most one sample per slot.
    """
    round_s = sum(statistics.median(times[s::slots]) for s in range(slots))
    return answered_share * slots / round_s


def end_to_end(rounds, seconds: float, setup_s: float) -> tuple[list[Results], dict]:
    res = Results()
    start = time.perf_counter()
    done = 0
    # Another round starts only if a round of the mean length still fits.
    while done < MIN_ROUNDS or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        for op in rounds[done % len(rounds)]:
            res.run(op)
        done += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(res.samples)
    answered = attempted - len(res.failures())
    times = res.seconds()
    metrics = {
        "ops_per_s": (typical_rate(times, len(rounds[0]), answered / attempted), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "answered_ratio": (answered / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"rounds: {done}, operations: {attempted}, answered: {answered}")
    return [res], metrics


def per_layer(rounds) -> tuple[list[Results], dict]:
    ops = [op for r in range(TRACE_ROUNDS) for op in rounds[r]]
    plain = Results()
    for op in ops:
        plain.run(op)
    tracer = Tracer()
    tracer.install()
    traced = Results()
    try:
        for op in ops:
            traced.run(op, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, "spans.json"))
    if tracer.absent:
        print("absent layers (reported as 0): " + ", ".join(tracer.absent))

    answers = len(ops) - len(traced.failures())
    certificates = sum('"certificate"' in s[2] for s in traced.samples)
    decomps = [op.want["k"] - 1 for op in ops if op.want["kind"] == "decomposition"]
    incl, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    optimizations = sum(calls[name] for name in ("feasibility.extremal_total_sum", "feasibility.optimize_cost"))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.self_s": (own["cli.main"], "s"),
        "core.parse_s": (incl["core.parse"], "s"),
        "core.parse_calls": (calls["core.parse"], "count"),
        "core.prefix_calls": (counts["core.prefix_calls"], "count"),
        "circulation.build_s": (incl["circulation.build"], "s"),
        "circulation.build_calls": (calls["circulation.build"], "count"),
        "circulation.arcs": (counts["circulation.arcs"], "count"),
        "circulation.maxflow_s": (incl["circulation.maxflow"], "s"),
        "circulation.maxflow_calls": (calls["circulation.maxflow"], "count"),
        "circulation.augmentations": (counts["circulation.augmentations"], "count"),
        "circulation.mincost_self_s": (own["circulation.mincost"], "s"),
        "circulation.mincost_calls": (calls["circulation.mincost"], "count"),
        "circulation.mincost_augmentations": (counts["circulation.mincost_augmentations"], "count"),
        "circulation.verify_s": (incl["circulation.verify"], "s"),
        "circulation.verify_calls": (calls["circulation.verify"], "count"),
        "circulation.cut_self_s": (own["circulation.cut"], "s"),
        "circulation.cut_calls": (calls["circulation.cut"], "count"),
        "strongpair.condition_s": (incl["strongpair.condition"], "s"),
        "strongpair.condition_calls": (calls["strongpair.condition"], "count"),
        "segments.maximal_segments_s": (incl["segments.maximal_segments"], "s"),
        "segments.maximal_segments_calls": (calls["segments.maximal_segments"], "count"),
        "feasibility.self_s": (tracer.layer_self("feasibility"), "s"),
        "asmkit.self_s": (tracer.layer_self("asmkit"), "s"),
        "decompose.self_s": (tracer.layer_self("decompose"), "s"),
        "feasibility.optimizations": (optimizations, "count"),
        "feasibility.mincost_runs_per_optimization": (
            ratio(counts["feasibility.mincost_in_optimization"], optimizations),
            "ratio",
        ),
        "cli.certificates": (certificates, "count"),
        "strongpair.condition_calls_per_certificate": (
            ratio(calls["strongpair.condition"], certificates),
            "ratio",
        ),
        "decompose.decompositions": (calls["decompose.decompose"], "count"),
        "decompose.mean_k_minus_1": (ratio(sum(decomps), len(decomps)), "ratio"),
        "decompose.builds_per_decomposition": (
            ratio(counts["decompose.builds"], calls["decompose.decompose"]),
            "ratio",
        ),
        "cli.answers": (answers, "count"),
        "circulation.verify_calls_per_answer": (ratio(calls["circulation.verify"], answers), "ratio"),
        "trace.overhead_ratio": (sum(traced.seconds()) / sum(plain.seconds()), "ratio"),
        "wall.ops_per_s": (typical_rate(plain.wall(), len(rounds[0]), 1.0), "1/s"),
        "wall.op_p50_s": (statistics.median(plain.wall()), "s"),
        "machine.reference_ms": (1000 * statistics.median(plain.refs + traced.refs), "ms"),
    }
    return [plain, traced], metrics


def load_fingerprint(workload: str, seed: int) -> "str | None":
    with open(os.path.join(ROOT, "pbmbench", "fingerprints.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pbm", "cli.py")):
        print(f"error: no program to benchmark: {SRC}/pbm/cli.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pbm.cli  # noqa: F401  (the in-process operations call it through sys.modules)

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rounds, digest = workloads.build(args.workload, args.seed, workdir)
        recorded = load_fingerprint(args.workload, args.seed)
        print(f"workload {args.workload}, seed {args.seed}, inputs sha256 {digest}")
        if recorded is not None and recorded != digest:
            raise BenchError(
                f"generated inputs changed: sha256 {digest}, recorded {recorded}; "
                "the generators must stay frozen (see pbmbench/README.md)"
            )
        warmup = rounds[0][-1]
        rc, stdout, _, crash = call_cli(warmup.argv)
        if crash is not None or check.check(warmup.want, rc, stdout) is not None:
            raise BenchError(f"warm-up operation {warmup.label!r} failed: {crash or rc}")
        if args.trace:
            results, metrics = per_layer(rounds)
        else:
            setup_s = measure_setup(warmup.argv, rc)
            results, metrics = end_to_end(rounds, args.seconds, setup_s)
        failures = [f for res in results for f in res.failures()]
        for label, reason in failures:
            print(f"FAILED {label}: {reason}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(len(res.samples) for res in results),
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
