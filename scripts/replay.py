#!/usr/bin/env python3
"""Replay the benchmark's operations through the CLI, check every answer, compare runs.

    python3 scripts/replay.py                        # check every answer
    python3 scripts/replay.py --out replay.json      # ... and record each operation
    python3 scripts/replay.py --against replay.json  # ... and compare with a record

The operations are rounds 0-4 of the four pbmbench workloads at seeds 0-2,
1,200 in all, built by ``pbmbench.workloads.build`` into a temporary
directory.  Each runs as one in-process call of ``pbm.cli.main(argv)``,
stdout and stderr captured, and ``pbmbench/check.py`` judges its answer.

A record holds, per operation, its exit code and the SHA-256 of its
stdout, with every ``wall_ms`` figure masked, and of its stderr, both
with the work directory's path masked.  It also holds one SHA-256 per
top-level key of the JSON answer, so that ``--against`` can say what
differs.  ``--against`` names, for each class of difference, how many
operations differ and the first few: exit code, status, value,
certificate, matrix, other stdout, stderr, in that order, each operation
counted under the first class it differs in.  A matrix that differs
under the same status is reported and does not fail: a change to the
solver may pick another matrix.  The script exits 1 when an answer is
wrong or a difference other than a matrix is found, else 0.

The package is imported from the ``src/`` directory next to this script,
and ``pbmbench`` from the checkout's root, so a checkout replays its own
code.  The script changes no file of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pbm import cli  # noqa: E402
from pbmbench import check, workloads  # noqa: E402

WORKLOADS = ("feasible", "infeasible", "optimize", "decompose")
SEEDS = range(3)
# the classes of a difference, in the order an operation is counted under
CLASSES = ("exit code", "status", "value", "certificate", "matrix", "other stdout", "stderr")
SHOWN = 3  # operations named per class
WALL_MS = re.compile(r'"wall_ms": [-+.0-9eE]+')


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def record(rc: int, stdout: str, stderr: str, workdir: str) -> dict:
    """One operation's exit code and digests, its timing and work directory masked."""
    stdout = WALL_MS.sub('"wall_ms": 0', stdout).replace(workdir, "<work>")
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    keys = doc if isinstance(doc, dict) else {}
    return {
        "rc": rc,
        "stdout": digest(stdout),
        "stderr": digest(stderr.replace(workdir, "<work>")),
        "keys": {key: digest(json.dumps(value, sort_keys=True)) for key, value in keys.items()},
    }


def replay() -> tuple[dict, list[str]]:
    """The record of every operation, keyed workload:seed:round:slot, and the faults found."""
    ops, faults = {}, []
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                rounds, _ = workloads.build(workload, seed, workdir)
                for r, ops_of_round in enumerate(rounds):
                    for s, op in enumerate(ops_of_round):
                        key = f"{workload}:{seed}:{r}:{s}"
                        try:
                            rc, stdout, stderr = run(op.argv)
                        except Exception as exc:  # a crash is a wrong answer, not a stop
                            faults.append(f"{key} {op.label}: raised {exc!r}"[:300])
                            continue
                        reason = check.check(op.want, rc, stdout)
                        if reason is not None:
                            faults.append(f"{key} {op.label}: {reason}")
                        ops[key] = record(rc, stdout, stderr, workdir)
    return ops, faults


def difference(old: dict, new: dict) -> "str | None":
    """The first class in which two records of one operation differ, or None."""
    if old["rc"] != new["rc"]:
        return "exit code"
    for key in ("status", "value", "certificate", "matrix"):
        if old["keys"].get(key) != new["keys"].get(key):
            return key
    if old["stdout"] != new["stdout"]:
        return "other stdout"
    if old["stderr"] != new["stderr"]:
        return "stderr"
    return None


def compare(old: dict, new: dict) -> bool:
    """Print the differences by class; True when none but matrices differ."""
    by_class: dict[str, list[str]] = {name: [] for name in CLASSES}
    missing = sorted(old.keys() ^ new.keys())
    for key in sorted(old.keys() & new.keys()):
        found = difference(old[key], new[key])
        if found is not None:
            by_class[found].append(key)
    same = len(old.keys() & new.keys()) - sum(map(len, by_class.values()))
    print(f"{same} of {len(new)} operations identical")
    for name, keys in by_class.items():
        if keys:
            shown = ", ".join(keys[:SHOWN]) + (", ..." if len(keys) > SHOWN else "")
            print(f"  {name}: {len(keys)} differ ({shown})")
    if missing:
        print(f"  {len(missing)} operations in only one record ({', '.join(missing[:SHOWN])})")
    return not missing and not any(keys for name, keys in by_class.items() if name != "matrix")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", help="write the record of every operation to this file")
    parser.add_argument("--against", help="compare with the record in this file")
    args = parser.parse_args(argv)
    ops, faults = replay()
    for fault in faults:
        print(f"FAULT {fault}")
    print(f"{len(ops)} operations replayed, {len(faults)} faults")
    if args.out:
        Path(args.out).write_text(json.dumps(ops, indent=1, sort_keys=True) + "\n")
    agrees = True
    if args.against:
        agrees = compare(json.loads(Path(args.against).read_text()), ops)
    return 0 if agrees and not faults else 1


if __name__ == "__main__":
    raise SystemExit(main())
