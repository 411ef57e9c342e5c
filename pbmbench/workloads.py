"""The operation list of each workload.

A workload is a round of 20 operation slots.  Each slot names a command
shape and a size; its contents are drawn from a random generator seeded
by (workload, seed, round, slot), so editing one slot leaves every other
operation unchanged.  A run executes whole rounds in order, so every
stretch of the run has the same mix of sizes.

A round costs about 3 s on the 2-core machine the benchmark was tuned
on, so five rounds (100 operations, the least a run makes) fit the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from . import gen

ROUNDS = 5


@dataclass
class Op:
    """One CLI call: its argv, and what the checker needs to judge the answer."""

    label: str
    argv: list[str]
    want: dict = field(repr=False)


class Writer:
    """Writes input files into the run's work directory and records their bytes."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.count = 0

    def put(self, doc) -> str:
        text = json.dumps(doc)
        name = f"in{self.count:05d}.json"
        self.count += 1
        self.digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def note_argv(self, argv: list[str]) -> None:
        rel = [a.replace(self.workdir, "<work>") for a in argv]
        self.digest.update(json.dumps(rel).encode() + b"\0")


Maker = Callable[[random.Random, Writer], tuple[list[str], dict]]


def solve_window(m: int, n: int, scale: int) -> Maker:
    def make(rng, w):
        doc, _ = gen.hidden_window(rng, m, n, scale)
        return ["solve", w.put(doc)], {"kind": "matrix", "instance": doc}

    return make


def solve_random(m: int, n: int, scale: int) -> Maker:
    def make(rng, w):
        doc = gen.random_window(rng, m, n, scale)
        return ["solve", w.put(doc)], {"kind": "verdict", "instance": doc}

    return make


def prescribe(n: int, completable: bool) -> Maker:
    def make(rng, w):
        doc = gen.k_regular_doc(n, 1)
        asm = gen.random_asm(rng, n)
        pick = gen.completable_prescription if completable else gen.contradictory_prescription
        pins = pick(rng, asm, n)
        argv = ["solve", w.put(doc), "--prescribe", json.dumps(pins)]
        return argv, {"kind": "matrix" if completable else "certificate", "instance": doc, "pins": pins}

    return make


def compatible(n: int, feasible: bool) -> Maker:
    def make(rng, w):
        labels = gen.feasible_labels(rng, gen.random_asm(rng, n)) if feasible else gen.infeasible_labels(rng, n)
        argv = ["asm", "--compatible", "@" + w.put(labels)]
        return argv, {"kind": "labels" if feasible else "family", "labels": labels}

    return make


def subordinate(n: int, feasible: bool, maximize: bool = False) -> Maker:
    def make(rng, w):
        if feasible:
            x = gen.sign_matrix_over(rng, gen.random_asm(rng, n), n * n // 4)
        else:
            x = gen.sign_matrix_without(rng, n, n * n // 4)
        argv = ["subordinate", w.put(x)] + (["--maximize"] if maximize else [])
        labels = [["+" if v == 1 else "-" if v == -1 else "0" for v in row] for row in x]
        if not feasible:
            return argv, {"kind": "family", "labels": labels}
        return argv, {"kind": "subordinate_max", "labels": labels}

    return make


def total_sum(doc_maker, direction: str) -> Maker:
    """``sum --max|--min``; ``doc_maker`` gives (instance, closed-form optimum or None for networkx)."""

    def make(rng, w):
        doc, value = doc_maker(rng)
        argv = ["sum", w.put(doc), f"--{direction}"]
        return argv, {"kind": "sum", "instance": doc, "direction": direction, "value": value}

    return make


def asm_sum(n: int, direction: str) -> Maker:
    return total_sum(lambda rng: (gen.k_regular_doc(n, 1), n), direction)


def staircase_sum(n: int) -> Maker:
    return total_sum(lambda rng: (gen.staircase_doc(n), n // 2), "max")


def wide_sum(n: int, direction: str) -> Maker:
    return total_sum(lambda rng: (gen.hidden_window(rng, n, n, 10**6)[0], None), direction)


def unbounded_sum(n: int, direction: str) -> Maker:
    def make(rng, w):
        doc = gen.unbounded_sum(rng, n, n, direction)
        argv = ["sum", w.put(doc), f"--{direction}"]
        return argv, {"kind": "unbounded", "instance": doc, "direction": direction}

    return make


def cost(n: int, direction: str) -> Maker:
    def make(rng, w):
        doc, _ = gen.hidden_window(rng, n, n, 1)
        costs = gen.cost_matrix(rng, n, n)
        argv = ["cost", w.put(doc), "--costs", w.put(costs), f"--{direction}"]
        return argv, {"kind": "cost", "instance": doc, "costs": costs, "direction": direction}

    return make


def decompose_k_regular(n: int, k: int) -> Maker:
    def make(rng, w):
        doc = gen.k_regular_doc(n, k)
        a = gen.k_regular_matrix(rng, n, k, moves=2 * n * n)
        argv = ["decompose", w.put(doc), "--matrix", w.put(a), "-k", str(k)]
        return argv, {"kind": "decomposition", "instance": doc, "matrix": a, "k": k}

    return make


def decompose_hidden(n: int, k: int) -> Maker:
    def make(rng, w):
        doc, a = gen.hidden_window(rng, n, n, 1)
        argv = ["decompose", w.put(doc), "--matrix", w.put(a), "-k", str(k)]
        return argv, {"kind": "decomposition", "instance": doc, "matrix": a, "k": k}

    return make


# Each list has 20 entries, (label, maker).  The first four slots (20%)
# are one top-tier kind, so the 90th percentile falls in the middle of
# their samples, and the mid-size slots after them cost clearly less.
# Then come four slots of similar cost meant to hold the median (ranks
# 40-60%), and eight small ones.  Keeping each percentile inside a run of
# similar operations keeps it off the gap between two tiers.  The last
# slot is the warm-up operation.
WORKLOADS: dict[str, list[tuple[str, Maker]]] = {
    # Max-flow to full demand plus re-verification (certificate and min-cost idle).
    "feasible": [
        ("solve 45x45 x1", solve_window(45, 45, 1)),
        ("solve 45x45 x1", solve_window(45, 45, 1)),
        ("solve 45x45 x1", solve_window(45, 45, 1)),
        ("solve 45x45 x1", solve_window(45, 45, 1)),
        ("solve 1x3000 x1", solve_window(1, 3000, 1)),
        ("solve 30x30 x1e40", solve_window(30, 30, 10**40)),
        ("solve 3x600 x1e6", solve_window(3, 600, 10**6)),
        ("prescribe asm(30)", prescribe(30, True)),
        ("solve 20x20 x1e6", solve_window(20, 20, 10**6)),
        ("solve 20x20 x1e40", solve_window(20, 20, 10**40)),
        ("solve 20x20 x1e6", solve_window(20, 20, 10**6)),
        ("solve 20x20 x1e40", solve_window(20, 20, 10**40)),
        ("compatible asm(20)", compatible(20, True)),
        ("prescribe asm(20)", prescribe(20, True)),
        ("compatible asm(20)", compatible(20, True)),
        ("prescribe asm(20)", prescribe(20, True)),
        ("solve 20x20 x1", solve_window(20, 20, 1)),
        ("solve 1x500 x1", solve_window(1, 500, 1)),
        ("solve 10x10 x1", solve_window(10, 10, 1)),
        ("solve 10x10 x1e40", solve_window(10, 10, 10**40)),
    ],
    # Max-flow stopped at a cut, then cut extraction and certificates.
    "infeasible": [
        ("solve random 55x55 x1e6", solve_random(55, 55, 10**6)),
        ("solve random 55x55 x1e6", solve_random(55, 55, 10**6)),
        ("solve random 55x55 x1e6", solve_random(55, 55, 10**6)),
        ("solve random 55x55 x1e6", solve_random(55, 55, 10**6)),
        ("solve random 1x1500 x1", solve_random(1, 1500, 1)),
        ("solve random 3x500 x1e40", solve_random(3, 500, 10**40)),
        ("prescribe contradictory asm(30)", prescribe(30, False)),
        ("incompatible asm(30)", compatible(30, False)),
        ("solve random 30x30 x1", solve_random(30, 30, 1)),
        ("no subordinate asm(30)", subordinate(30, False)),
        ("solve random 30x30 x1e40", solve_random(30, 30, 10**40)),
        ("no subordinate asm(30)", subordinate(30, False)),
        ("prescribe contradictory asm(20)", prescribe(20, False)),
        ("incompatible asm(20)", compatible(20, False)),
        ("prescribe contradictory asm(20)", prescribe(20, False)),
        ("incompatible asm(20)", compatible(20, False)),
        ("solve random 20x20 x1e6", solve_random(20, 20, 10**6)),
        ("solve random 20x20 x1e40", solve_random(20, 20, 10**40)),
        ("no subordinate asm(20)", subordinate(20, False)),
        ("no subordinate asm(20)", subordinate(20, False)),
    ],
    # Min-cost circulation: total-sum and linear-cost optima, unbounded verdicts.
    "optimize": [
        ("sum --max asm(15)", asm_sum(15, "max")),
        ("sum --min asm(15)", asm_sum(15, "min")),
        ("sum --max asm(15)", asm_sum(15, "max")),
        ("sum --min asm(15)", asm_sum(15, "min")),
        ("sum --max staircase 1x200", staircase_sum(200)),
        ("subordinate --maximize 20x20", subordinate(20, True, maximize=True)),
        ("cost 12x12 --max", cost(12, "max")),
        ("sum --max unbounded 12x12", unbounded_sum(12, "max")),
        ("sum --max asm(10)", asm_sum(10, "max")),
        ("sum --min wide 8x8", wide_sum(8, "min")),
        ("sum --min asm(10)", asm_sum(10, "min")),
        ("sum --max wide 8x8", wide_sum(8, "max")),
        ("sum --max staircase 1x100", staircase_sum(100)),
        ("cost 10x10 --min", cost(10, "min")),
        ("sum --min unbounded 10x10", unbounded_sum(10, "min")),
        ("cost 8x8 --min", cost(8, "min")),
        ("cost 8x8 --max", cost(8, "max")),
        ("sum --max unbounded 8x8", unbounded_sum(8, "max")),
        ("subordinate --maximize 10x10", subordinate(10, True, maximize=True)),
        ("subordinate --maximize 10x10", subordinate(10, True, maximize=True)),
    ],
    # k-1 network builds and small max-flows per operation, plus verification.
    "decompose": [
        ("decompose k-regular 26x26 k=6", decompose_k_regular(26, 6)),
        ("decompose k-regular 26x26 k=6", decompose_k_regular(26, 6)),
        ("decompose k-regular 26x26 k=6", decompose_k_regular(26, 6)),
        ("decompose k-regular 26x26 k=6", decompose_k_regular(26, 6)),
        ("decompose k-regular 26x26 k=4", decompose_k_regular(26, 4)),
        ("decompose hidden 26x26 k=3", decompose_hidden(26, 3)),
        ("decompose k-regular 40x40 k=2", decompose_k_regular(40, 2)),
        ("decompose k-regular 20x20 k=8", decompose_k_regular(20, 8)),
        ("decompose k-regular 20x20 k=4", decompose_k_regular(20, 4)),
        ("decompose hidden 20x20 k=3", decompose_hidden(20, 3)),
        ("decompose k-regular 20x20 k=4", decompose_k_regular(20, 4)),
        ("decompose hidden 20x20 k=3", decompose_hidden(20, 3)),
        ("decompose hidden 20x20 k=5", decompose_hidden(20, 5)),
        ("decompose k-regular 24x24 k=3", decompose_k_regular(24, 3)),
        ("decompose hidden 16x16 k=4", decompose_hidden(16, 4)),
        ("decompose k-regular 16x16 k=5", decompose_k_regular(16, 5)),
        ("decompose hidden 24x24 k=2", decompose_hidden(24, 2)),
        ("decompose k-regular 24x24 k=2", decompose_k_regular(24, 2)),
        ("decompose hidden 20x20 k=2", decompose_hidden(20, 2)),
        ("decompose k-regular 20x20 k=2", decompose_k_regular(20, 2)),
    ],
}


def build(workload: str, seed: int, workdir: str) -> tuple[list[list[Op]], str]:
    """All rounds of a workload for one seed, and the SHA-256 of their inputs."""
    slots = WORKLOADS[workload]
    writer = Writer(workdir)
    rounds = []
    for r in range(ROUNDS):
        ops = []
        for s, (label, make) in enumerate(slots):
            rng = random.Random(f"{workload}:{seed}:{r}:{s}")
            argv, want = make(rng, writer)
            writer.note_argv(argv)
            ops.append(Op(label, argv, want))
        rounds.append(ops)
    return rounds, writer.digest.hexdigest()
