#!/usr/bin/env python3
"""Time the infeasible answer layer by layer, and feasible solves; write BENCH_<label>.json.

    python3 scripts/bench.py --label head

The infeasible inputs are 20 fixed documents: ``random_instance(Random(seed),
55, 55)`` from tests/helpers.py, seeds 0-19, written as JSON.  Independent
random windows on a grid this size are almost never feasible, so each
solve ends in a certificate.  The rows are:

* ``cli solve``: the 20 documents solved one after another through
  ``pbm.cli.main(["solve", path])`` in this process, stdout and stderr
  captured, as a user would type the command; the wall time of the whole
  batch, over ``RUNS`` batches;
* ``cli cold start``: ``RUNS`` fresh interpreters, each of which imports
  ``pbm.cli`` and runs ``pbm.cli.main(["solve", path])`` on the
  ``asm_instance(3)`` document; the wall time of each child process.  The
  row stores the sorted ``pbm.*`` modules the child loaded and their
  count, which repeat exactly, and ``bytecode_cached``, whether
  ``src/pbm/__pycache__`` held bytecode when the children started: a
  cached start skips compiling the modules.  The script exits nonzero
  unless every child exits 0;
* one row per layer, each the sum over the 20 documents of that
  document's ``timeit`` times over ``RUNS`` runs: JSON decode,
  ``instance_from_json`` (which validates too), ``validate_instance`` on
  its own, ``build_network``, ``min_cost_circulation`` and
  ``cut_to_certificate``;
* ``cut_to_certificate hub cut``: the ``timeit`` times over ``RUNS`` runs,
  each the mean of ``CALLS`` calls, of ``cut_to_certificate(net,
  witness)`` on ``asm_instance(55)`` with beta = 54, whose flow cut names
  v2_hub alone, so that X2 is every cell of the grid.  The row stores
  the sizes of the named set, X1 and X2.  The script exits nonzero unless
  the cut names a hub;
* one row per feasible network, the ``timeit`` times over ``RUNS`` runs
  of ``min_cost_circulation(net)``, which computes the line reaches and
  runs the flow: ``feasible_random(Random(n), n, n)`` for n = 45 and 150,
  the lines ``feasible_random(Random(3), 1, 3000)`` and
  ``feasible_random(Random(3), 3000, 1)``, and ``asm_instance(30)``; the
  last three start as circulations.  Each of these rows also stores the
  ``pushes`` and ``relabels`` of one solve, counts that repeat exactly
  and, unlike the times, do not drift with the speed of the host;
* ``checked_matrix``: the ``timeit`` times over ``RUNS`` runs of
  ``checked_matrix(inst, circ)`` on the feasible 150x150 solve, the
  final re-verification that every answer goes through;
* ``unbounded sum 30x30``: the ``timeit`` times over ``RUNS`` runs of
  ``extremal_total_sum(inst, "max")`` on ``feasible_random(rng, 30, 30)``
  with the last entry of one row, its row prefix and the column below it
  opened upward by ``open_last_entry(rng, ..., "max")``, ``rng =
  Random(30)``; the sum is unbounded by construction, so each run pays
  the main solve and the recession solve of its ray.  The row stores the
  main solve's ``pushes`` and ``relabels``.  The script exits nonzero
  unless the answer is ``"unbounded"``;
* ``priced 40x40``, one row each for C = 5, 100 and 10^4: the ``timeit``
  times of ``optimize_cost(inst, costs)`` on ``feasible_random(Random(7),
  40, 40)``, with the costs drawn row-major by ``Random(3).randint(-C,
  C)``, over ``RUNS`` runs at C = 5 and 100 and over ``WIDE_RUNS`` at
  C = 10^4, where one solve takes one to four seconds and the script
  also runs in CI.  Each row stores the ``pushes`` and ``relabels`` of
  one solve, summed over its priced rounds.  The script exits nonzero
  unless the answer is ``"optimal"``;
* one row per ``decompose`` case, the ``timeit`` times over ``RUNS`` runs
  of ``decompose(inst, a, k)``: the 10x10 instance with every bound open
  and A's entries drawn row-major by ``Random(10).randint(-10**6, 10**6)``
  at k = 4097, and ``feasible_random(Random(26), 26, 26)`` with A its
  solved matrix at k = 6.  Each row stores the number of distinct parts,
  of networks built, of flow solves and of halvings of one call, counts
  that repeat exactly.  The script exits nonzero unless the parts add up
  to A;
* ``_halve``: the ``timeit`` times over ``RUNS`` runs of every halving
  that one call of each decompose case makes, one after another.

Every row holds the median of its samples as ``median_s`` and their first
and third quartiles as ``q1_s`` and ``q3_s``, so a difference between
two files can be weighed against the spread within each run; a per-layer
row sums each of the three over the documents.

The package is imported from the ``src/`` directory next to this script,
so a checkout times its own code.  The file goes to the root of that
checkout and records the Python version and the processor count next to
the rows; timings from different machines do not compare.  The script
changes no library code and keeps no state between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pbm import cli  # noqa: E402
from pbm.circulation import (  # noqa: E402
    CutWitness,
    build_network,
    checked_matrix,
    cut_to_certificate,
    min_cost_circulation,
)
from pbm.asmkit import asm_instance  # noqa: E402
from pbm.core import (  # noqa: E402
    NEG_INF,
    POS_INF,
    IntMatrix,
    PbmInstance,
    fin,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from pbm.decompose import decompose  # noqa: E402
from pbm.feasibility import extremal_total_sum, optimize_cost, solve  # noqa: E402
from helpers import feasible_random, open_last_entry, random_instance  # noqa: E402

SEEDS = range(20)
SIZE = (55, 55)
RUNS = 15
CALLS = 20  # calls per sample of the hub cut row
# (seed, m, n) of each feasible_random network
FEASIBLE = ((45, 45, 45), (150, 150, 150), (3, 1, 3000), (3, 3000, 1))
# the cost spread C of each priced row, and its number of runs
WIDE_RUNS = 5
PRICED = ((5, RUNS), (100, RUNS), (10**4, WIDE_RUNS))


def spread(times: list[float]) -> dict:
    """The median and the first and third quartiles of the samples, in seconds."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def documents() -> list[str]:
    """The JSON text of every seed's instance."""
    return [
        json.dumps(instance_to_json(random_instance(random.Random(seed), *SIZE)))
        for seed in SEEDS
    ]


def cli_row(texts: list[str]) -> dict:
    """Wall time of solving every document through the CLI, one batch per run."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for seed, text in zip(SEEDS, texts):
            path = os.path.join(tmp, f"random_{seed}.json")
            with open(path, "w") as fh:
                fh.write(text)
            paths.append(path)
        batches, codes = [], []
        for _ in range(RUNS):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes = [cli.main(["solve", path]) for path in paths]
            batches.append(time.perf_counter() - t0)
    return {
        "case": f"random_instance {SIZE[0]}x{SIZE[1]}, seeds {SEEDS[0]}-{SEEDS[-1]}",
        "what": "pbm.cli.main(['solve', path]) for each document, in one process",
        "runs": RUNS,
        **spread(batches),
        "exit_codes": sorted(set(codes)),
    }


# A fresh interpreter solves the document at argv[2] and prints the pbm modules it
# loaded; its exit code is the command's.
COLD_START = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import pbm.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = pbm.cli.main(["solve", sys.argv[2]])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("pbm."))))
sys.exit(rc)
"""


def cold_start_row() -> dict:
    """Wall time of one fresh ``pbm solve`` process on asm(3), over ``RUNS`` processes."""
    cached = any((ROOT / "src" / "pbm" / "__pycache__").glob("*.pyc"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "asm3.json")
        with open(path, "w") as fh:
            json.dump(instance_to_json(asm_instance(3)), fh)
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            child = subprocess.run(
                [sys.executable, "-c", COLD_START, str(ROOT / "src"), path],
                capture_output=True,
                text=True,
                timeout=60,
            )
            times.append(time.perf_counter() - t0)
            if child.returncode != 0:
                raise SystemExit(f"cold start exited {child.returncode}: {child.stderr.strip()}")
    modules = json.loads(child.stdout)
    return {
        "case": "asm_instance(3)",
        "what": "pbm.cli.main(['solve', path]) in a fresh interpreter per run",
        "layer": "cli cold start",
        "runs": RUNS,
        **spread(times),
        "bytecode_cached": cached,
        "modules": modules,
        "module_count": len(modules),
    }


def layer_rows(texts: list[str]) -> list[dict]:
    """Per layer, the sums over the documents of each one's median and quartiles."""
    layers = {
        "json decode": "json.loads(text)",
        "instance_from_json": "instance_from_json(doc)",
        "validate_instance": "validate_instance(inst)",
        "build_network": "build_network(inst)",
        "min_cost_circulation": "min_cost_circulation(net)",
        "cut_to_certificate": "cut_to_certificate(net, witness)",
    }
    per_doc: dict[str, list[dict]] = {name: [] for name in layers}
    for text in texts:
        doc = json.loads(text)
        inst = instance_from_json(doc)
        net = build_network(inst)
        witness = min_cost_circulation(net)
        scope = {**globals(), "text": text, "doc": doc, "inst": inst, "net": net}
        scope["witness"] = witness
        for name, stmt in layers.items():
            if name == "cut_to_certificate" and not isinstance(witness, CutWitness):
                continue
            times = timeit.repeat(stmt, globals=scope, number=1, repeat=RUNS)
            per_doc[name].append(spread(times))
    return [
        {
            "case": f"random_instance {SIZE[0]}x{SIZE[1]}, seeds {SEEDS[0]}-{SEEDS[-1]}",
            "what": stmt,
            "layer": name,
            "runs": RUNS,
            "documents": len(per_doc[name]),
            **{key: sum(d[key] for d in per_doc[name]) for key in ("median_s", "q1_s", "q3_s")},
            "per_document_median_s": [d["median_s"] for d in per_doc[name]],
        }
        for name, stmt in layers.items()
    ]


def hub_cut_row() -> dict:
    """The median and quartiles of one certificate read off a flow cut that names a hub."""
    net = build_network(dataclasses.replace(asm_instance(55), beta=fin(54)))
    witness = min_cost_circulation(net)
    if not isinstance(witness, CutWitness) or not {net.v1_hub, net.v2_hub} & witness.nodes:
        raise SystemExit("asm(55) with beta = 54 gave no cut that names a hub")
    cert = cut_to_certificate(net, witness)
    # a call takes about a millisecond, so each sample is the mean of CALLS calls
    times = timeit.repeat("cut_to_certificate(net, witness)",
                          globals={**globals(), "net": net, "witness": witness},
                          number=CALLS, repeat=RUNS)
    times = [t / CALLS for t in times]
    return {
        "case": "asm_instance(55) with beta = 54, witness = its min_cost_circulation",
        "what": "cut_to_certificate(net, witness)",
        "layer": "cut_to_certificate hub cut",
        "runs": RUNS,
        "calls_per_run": CALLS,
        **spread(times),
        "named": len(witness.nodes),
        "x1": len(cert.x1),
        "x2": len(cert.x2),
    }


def feasible_rows() -> list[dict]:
    """Per feasible network, the median and quartiles of one solve's time, and its counts.

    The 150x150 solve's circulation is then timed through ``checked_matrix``.
    """
    cases = [
        (f"feasible_random(Random({seed}), {m}, {n})", f"feasible {m}x{n}",
         feasible_random(random.Random(seed), m, n))
        for seed, m, n in FEASIBLE
    ]
    cases.append(("asm_instance(30)", "feasible asm(30)", asm_instance(30)))
    rows = []
    for case, layer, inst in cases:
        net = build_network(inst)
        info: dict = {}
        circ = min_cost_circulation(net, None, info)
        if isinstance(circ, CutWitness):
            raise SystemExit(f"{case} came out infeasible")
        if layer == "feasible 150x150":
            checked = case, inst, circ
        times = timeit.repeat("min_cost_circulation(net)", globals={**globals(), "net": net},
                              number=1, repeat=RUNS)
        rows.append({
            "case": case,
            "what": "min_cost_circulation(net)",
            "layer": layer,
            "runs": RUNS,
            **spread(times),
            "pushes": info["pushes"],
            "relabels": info["relabels"],
        })
    case, inst, circ = checked
    times = timeit.repeat("checked_matrix(inst, circ)",
                          globals={**globals(), "inst": inst, "circ": circ}, number=1, repeat=RUNS)
    rows.append({
        "case": f"{case}, circ = its min_cost_circulation",
        "what": "checked_matrix(inst, circ)",
        "layer": "checked_matrix",
        "runs": RUNS,
        **spread(times),
    })
    return rows


def unbounded_row() -> dict:
    """The median and quartiles of one unbounded ``sum --max``, with its counts."""
    rng = random.Random(30)
    inst = open_last_entry(rng, feasible_random(rng, 30, 30), "max")
    info: dict = {}
    status = extremal_total_sum(inst, "max", info).status
    if status != "unbounded":
        raise SystemExit(f"the opened 30x30 sum came out {status}")
    times = timeit.repeat('extremal_total_sum(inst, "max")', globals={**globals(), "inst": inst},
                          number=1, repeat=RUNS)
    return {
        "case": 'open_last_entry(rng, feasible_random(rng, 30, 30), "max"), rng = Random(30)',
        "what": 'extremal_total_sum(inst, "max")',
        "layer": "unbounded sum 30x30",
        "runs": RUNS,
        **spread(times),
        "pushes": info["pushes"],
        "relabels": info["relabels"],
    }


def priced_rows() -> list[dict]:
    """Per cost spread C, the median and quartiles of one priced 40x40 solve, and its counts."""
    inst = feasible_random(random.Random(7), 40, 40)
    rows = []
    for c_max, runs in PRICED:
        rng = random.Random(3)
        costs = IntMatrix.from_rows(
            [[rng.randint(-c_max, c_max) for _ in range(40)] for _ in range(40)]
        )
        info: dict = {}
        status = optimize_cost(inst, costs, "min", info).status
        if status != "optimal":
            raise SystemExit(f"the priced 40x40 solve with C = {c_max} came out {status}")
        times = timeit.repeat("optimize_cost(inst, costs)",
                              globals={**globals(), "inst": inst, "costs": costs},
                              number=1, repeat=runs)
        rows.append({
            "case": f"feasible_random(Random(7), 40, 40), costs Random(3).randint(-{c_max}, "
                    f"{c_max}) row-major",
            "what": "optimize_cost(inst, costs)",
            "layer": f"priced 40x40 C={c_max}",
            "runs": runs,
            **spread(times),
            "pushes": info["pushes"],
            "relabels": info["relabels"],
        })
    return rows


def decompose_cases() -> list[tuple[str, str, PbmInstance, IntMatrix, int]]:
    """(case, layer, instance, A, k) of each decompose row."""
    rng = random.Random(10)
    lows, highs = [[NEG_INF] * 10] * 10, [[POS_INF] * 10] * 10
    open_10 = PbmInstance.create(10, 10, lows, highs, lows, highs, lows, highs)
    spread_10 = IntMatrix.from_rows([[rng.randint(-10**6, 10**6) for _ in range(10)] for _ in range(10)])
    solved_26 = feasible_random(random.Random(26), 26, 26)
    return [
        ("open 10x10, A row-major Random(10).randint(-10**6, 10**6)", "decompose open 10x10 k=4097",
         open_10, spread_10, 4097),
        ("feasible_random(Random(26), 26, 26), A = solve(inst).matrix", "decompose 26x26 k=6",
         solved_26, solve(solved_26).matrix, 6),
    ]


def decompose_rows() -> list[dict]:
    """Per decompose case, one call's median, quartiles and counts; then the halvings' row."""
    mod = importlib.import_module("pbm.decompose")
    real_build, real_solve, real_halve = mod.build_network, mod.min_cost_circulation, mod._halve
    rows, halvings = [], []
    for case, layer, inst, a, k in decompose_cases():
        builds: list = []
        solves: list = []
        calls = len(halvings)
        mod.build_network = lambda box: builds.append(box) or real_build(box)
        mod.min_cost_circulation = lambda net: solves.append(net) or real_solve(net)
        mod._halve = lambda m, n, z: halvings.append((m, n, z)) or real_halve(m, n, z)
        try:
            dec = decompose(inst, a, k)
        finally:
            mod.build_network, mod.min_cost_circulation = real_build, real_solve
            mod._halve = real_halve
        if dec.total() != a:
            raise SystemExit(f"the parts of {layer} do not add up to A")
        times = timeit.repeat("decompose(inst, a, k)",
                              globals={**globals(), "inst": inst, "a": a, "k": k},
                              number=1, repeat=RUNS)
        rows.append({
            "case": f"{case}, k = {k}",
            "what": "decompose(inst, a, k)",
            "layer": layer,
            "runs": RUNS,
            **spread(times),
            "distinct_parts": len(dec.parts),
            "networks": len(builds),
            "solves": len(solves),
            "halvings": len(halvings) - calls,
        })
    times = timeit.repeat("for m, n, z in halvings: halve(m, n, z)",
                          globals={"halvings": halvings, "halve": real_halve},
                          number=1, repeat=RUNS)
    rows.append({
        "case": "every halving of one call of each decompose row",
        "what": "_halve(m, n, z) for each recorded (m, n, z)",
        "layer": "_halve",
        "runs": RUNS,
        **spread(times),
        "halvings": len(halvings),
    })
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)
    texts = documents()
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rows": [cli_row(texts), cold_start_row(), *layer_rows(texts), hub_cut_row(), *feasible_rows(),
                 unbounded_row(), *priced_rows(), *decompose_rows()],
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    for row in out["rows"]:
        counts = f"  {row['pushes']} pushes, {row['relabels']} relabels" if "pushes" in row else ""
        if "distinct_parts" in row:
            counts = (f"  {row['distinct_parts']} distinct parts, {row['networks']} networks,"
                      f" {row['solves']} solves, {row['halvings']} halvings")
        elif "halvings" in row:
            counts = f"  {row['halvings']} halvings"
        if "module_count" in row:
            counts = f"  {row['module_count']} pbm modules, bytecode cached: {row['bytecode_cached']}"
        print(
            f"{row.get('layer', 'cli solve'):>22}  {row['median_s'] * 1e3:9.2f} ms"
            f"  ({row['q1_s'] * 1e3:.2f}-{row['q3_s'] * 1e3:.2f}){counts}"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
