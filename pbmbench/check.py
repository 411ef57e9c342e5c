"""Independent checks of every answer, run outside the timed region.

* Matrices are checked with ``pbm.oracle.matrix_satisfies``, which works
  from the definitions and never calls the solver.
* Certificates are re-evaluated with ``pbm.strongpair.condition_values``
  on the instance the benchmark wrote, and the emitted sides must match.
* Optimal values and unbounded verdicts come from closed forms (an ASM
  sums to n, a staircase to n/2) or from networkx's network simplex on a
  circulation network built here from the instance JSON.
* Decompositions are re-summed and their sign consistency and shrunk
  bounds are checked here.

``check`` returns None for a correct answer and a reason otherwise.
"""

from __future__ import annotations

import json

from . import gen

INF, NINF = gen.INF, gen.NINF

EXIT_OK, EXIT_INFEASIBLE, EXIT_UNBOUNDED = 0, 2, 3


def _pbm():
    import pbm.core
    import pbm.oracle
    import pbm.strongpair

    return pbm.core, pbm.oracle, pbm.strongpair


def _satisfies(doc: dict, *matrices) -> bool:
    """Whether every matrix meets every bound of the instance."""
    core, oracle, _ = _pbm()
    inst = core.instance_from_json(doc)
    return all(oracle.matrix_satisfies(inst, core.IntMatrix.from_rows(mat)) for mat in matrices)


def _pinched(doc: dict, pins) -> dict:
    out = dict(doc, f=[row[:] for row in doc["f"]], g=[row[:] for row in doc["g"]])
    for i, j, v in pins:
        out["f"][i - 1][j - 1] = out["g"][i - 1][j - 1] = v
    return out


def _relaxed(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("alpha", "beta")}


def _certificate_error(doc: dict, cert: dict) -> "str | None":
    core, _, strongpair = _pbm()
    inst = core.instance_from_json(doc)
    x1 = core.mask_from_json(inst.m, inst.n, cert["x1"])
    x2 = core.mask_from_json(inst.m, inst.n, cert["x2"])
    rec = strongpair.condition_values(inst, x1, x2).by_name(cert["violated"])
    if rec.holds:
        return f"certificate {cert['violated']} holds: {rec.lhs} <= {rec.rhs}"
    if rec.lhs.to_json() != cert["lhs"] or rec.rhs.to_json() != cert["rhs"]:
        return f"emitted sides {cert['lhs']} > {cert['rhs']} differ from {rec.lhs} > {rec.rhs}"
    return None


_LABEL_VALUES = {"0": (0,), "+1": (1,), "-1": (-1,), "+": (0, 1), "-": (-1, 0), "F": (-1, 0, 1)}


def _partition_doc(labels) -> dict:
    """ASM windows with the entry bounds a label grid stands for (docs/schema.md)."""
    bounds = {"0": (0, 0), "+1": (1, INF), "-1": (NINF, -1), "+": (0, INF), "-": (NINF, 0), "F": (NINF, INF)}
    doc = gen.k_regular_doc(len(labels), 1)
    doc["f"] = [[bounds[lab][0] for lab in row] for row in labels]
    doc["g"] = [[bounds[lab][1] for lab in row] for row in labels]
    return doc


def _family_error(labels, fam: dict) -> "str | None":
    """Re-count a segment family: it must cover what it claims and be too small."""
    n = len(labels)
    cover = [[0] * n for _ in range(n)]
    for seg in fam["segments"]:
        line, a, b = seg["line"], seg["start"], seg["end"]
        if not (1 <= line <= n and 1 <= a <= b <= n):
            return f"segment {seg} leaves the grid"
        for p in range(a, b + 1):
            i, j = (line, p) if seg["orientation"] == "horizontal" else (p, line)
            cover[i - 1][j - 1] += 1
    minus_missed = plus_twice = 0
    for i in range(n):
        for j in range(n):
            lab = labels[i][j]
            if cover[i][j] == 0:
                if 1 in _LABEL_VALUES[lab]:
                    return f"uncovered cell ({i + 1},{j + 1}) allows +1"
                minus_missed += lab == "-1"
            elif cover[i][j] == 2:
                if -1 in _LABEL_VALUES[lab]:
                    return f"twice covered cell ({i + 1},{j + 1}) allows -1"
                plus_twice += lab == "+1"
    required = n + minus_missed + plus_twice
    claimed = (fam["size"], fam["uncovered_minus_ones"], fam["twice_covered_plus_ones"], fam["required"])
    if claimed != (len(fam["segments"]), minus_missed, plus_twice, required):
        return f"family counts {claimed} do not match the segments"
    if fam["size"] >= required:
        return f"family of {fam['size']} segments does not beat {required}"
    return None


def _is_asm(matrix) -> bool:
    return _satisfies(gen.k_regular_doc(len(matrix), 1), matrix)


# --- networkx reference -------------------------------------------------------


def _arcs(doc: dict, total_free: bool):
    """(tail, head, lower, upper, arc key) of the circulation network.

    One node per horizontal and per vertical prefix plus two hubs: the arc
    into h(i, j) carries the row prefix sum, the arc out of v(i, j) the
    column prefix sum, the arc h(i, j) -> v(i, j) the entry, and the arc
    from the vertical to the horizontal hub the total.
    """
    m, n = doc["m"], doc["n"]
    f = doc.get("f") or [[NINF] * n for _ in range(m)]
    g = doc.get("g") or [[INF] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            tail = ("h", i, j + 1) if j + 1 < n else "H"
            yield tail, ("h", i, j), doc["phi1"][i][j], doc["gamma1"][i][j], None
            head = ("v", i + 1, j) if i + 1 < m else "V"
            yield ("v", i, j), head, doc["phi2"][i][j], doc["gamma2"][i][j], None
            yield ("h", i, j), ("v", i, j), f[i][j], g[i][j], (i, j)
    if total_free:
        yield "V", "H", NINF, INF, "total"
    else:
        yield "V", "H", doc.get("alpha", NINF), doc.get("beta", INF), "total"


def nx_optimum(doc: dict, weight: dict, total_free: bool) -> "int | None":
    """min sum(weight[key] * flow) over the instance; None when unbounded below.

    An arc with a finite lower bound l carries l plus a nonnegative flow; one
    with only a finite upper bound u carries u minus a flow on the reverse
    arc; a doubly infinite arc gets a pair of opposite arcs.
    """
    import networkx as nx

    graph = nx.DiGraph()
    demand: dict = {}
    offset = 0

    def bump(node, amount):
        demand[node] = demand.get(node, 0) + amount

    def edge(a, b, cap, w):
        attrs = {"weight": w}
        if cap is not None:
            attrs["capacity"] = cap
        graph.add_edge(a, b, **attrs)

    for tail, head, lo, hi, key in _arcs(doc, total_free):
        c = weight.get(key, 0)
        if lo != NINF:
            bump(tail, lo)
            bump(head, -lo)
            offset += c * lo
            edge(tail, head, None if hi == INF else hi - lo, c)
        elif hi != INF:
            bump(tail, hi)
            bump(head, -hi)
            offset += c * hi
            edge(head, tail, None, -c)
        else:
            edge(tail, head, None, c)
            edge(head, tail, None, -c)
    for node, d in demand.items():
        graph.nodes[node]["demand"] = d
    try:
        flow_cost, _ = nx.network_simplex(graph)
    except nx.NetworkXUnbounded:
        return None
    return offset + flow_cost


# --- per-kind checks ---------------------------------------------------------


def _expect(rc: int, want_rc: int) -> "str | None":
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    return None


def _check_matrix(want, rc, out):
    doc = want["instance"]
    if want.get("pins"):
        doc = _pinched(doc, want["pins"])
    return _expect(rc, EXIT_OK) or (
        None if out["status"] == "feasible" and _satisfies(doc, out["matrix"]) else "matrix breaks a bound"
    )


def _check_certificate(want, rc, out):
    doc = want["instance"]
    if want.get("pins"):
        doc = _pinched(doc, want["pins"])
    return _expect(rc, EXIT_INFEASIBLE) or _certificate_error(doc, out["certificate"])


def _check_verdict(want, rc, out):
    if rc == EXIT_OK:
        return _check_matrix(want, rc, out)
    return _check_certificate(want, rc, out)


def _check_labels(want, rc, out):
    labels = want["labels"]
    err = _expect(rc, EXIT_OK)
    if err:
        return err
    mat = out["matrix"]
    if not _is_asm(mat):
        return "not an ASM"
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v not in _LABEL_VALUES[labels[i][j]]:
                return f"entry ({i + 1},{j + 1}) = {v} breaks label {labels[i][j]}"
    return None


def _check_family(want, rc, out):
    labels = want["labels"]
    return (
        _expect(rc, EXIT_INFEASIBLE)
        or _certificate_error(_partition_doc(labels), out["certificate"])
        or _family_error(labels, out["family"])
    )


def _check_subordinate_max(want, rc, out):
    err = _check_labels(want, rc, out)
    if err:
        return err
    kept = sum(v == 1 for row in out["matrix"] for v in row)
    if kept != out["plus_ones_kept"]:
        return f"plus_ones_kept {out['plus_ones_kept']} but matrix keeps {kept}"
    labels = want["labels"]
    weight = {(i, j): -1 for i, row in enumerate(labels) for j, lab in enumerate(row) if lab == "+"}
    best = nx_optimum(_partition_doc(labels), weight, total_free=True)
    return None if best is not None and kept == -best else f"kept {kept} of the +1 entries, networkx {best}"


def _check_sum(want, rc, out):
    doc = want["instance"]
    err = _expect(rc, EXIT_OK)
    if err:
        return err
    sign = -1 if want["direction"] == "max" else 1
    value = want["value"]
    if value is None:
        best = nx_optimum(doc, {"total": sign}, total_free=True)
        if best is None:
            return "networkx finds the sum unbounded"
        value = sign * best
    if out["value"] != value:
        return f"value {out['value']}, expected {value}"
    if sum(map(sum, out["matrix"])) != value or not _satisfies(_relaxed(doc), out["matrix"]):
        return "optimal matrix does not meet the bounds or the value"
    return None


def _check_unbounded(want, rc, out):
    err = _expect(rc, EXIT_UNBOUNDED)
    if err:
        return err
    sign = -1 if want["direction"] == "max" else 1
    if nx_optimum(want["instance"], {"total": sign}, total_free=True) is not None:
        return "networkx finds a finite optimum"
    return None


def _check_cost(want, rc, out):
    doc, costs = want["instance"], want["costs"]
    err = _expect(rc, EXIT_OK)
    if err:
        return err
    sign = -1 if want["direction"] == "max" else 1
    weight = {(i, j): sign * c for i, row in enumerate(costs) for j, c in enumerate(row)}
    best = nx_optimum(doc, weight, total_free=False)
    if best is None:
        return "networkx finds the cost unbounded"
    best *= sign
    got = sum(c * v for crow, vrow in zip(costs, out["matrix"]) for c, v in zip(crow, vrow))
    if out["value"] != best or got != best:
        return f"value {out['value']} (matrix {got}), networkx {best}"
    return None if _satisfies(doc, out["matrix"]) else "optimal matrix breaks a bound"


def _shrunk(doc: dict, k: int) -> dict:
    """The instance with lower bounds divided by k and floored, upper ones ceiled."""

    def down(x):
        return x if isinstance(x, str) else x // k

    def up(x):
        return x if isinstance(x, str) else -((-x) // k)

    out = dict(doc)
    for key in ("phi1", "phi2", "f"):
        if key in doc:
            out[key] = [[down(x) for x in row] for row in doc[key]]
    for key in ("gamma1", "gamma2", "g"):
        if key in doc:
            out[key] = [[up(x) for x in row] for row in doc[key]]
    for key, fn in (("alpha", down), ("beta", up)):
        if key in doc:
            out[key] = fn(doc[key])
    return out


def _check_decomposition(want, rc, out):
    err = _expect(rc, EXIT_OK)
    if err:
        return err
    a, k = want["matrix"], want["k"]
    if out["k"] != k or sum(p["multiplicity"] for p in out["parts"]) != k:
        return "multiplicities do not add up to k"
    m, n = len(a), len(a[0])
    total = [[0] * n for _ in range(m)]
    for part in out["parts"]:
        mat, mult = part["matrix"], part["multiplicity"]
        for i in range(m):
            for j in range(n):
                v = mat[i][j]
                if v * a[i][j] < 0 or (a[i][j] == 0 and v != 0):
                    return f"part entry ({i + 1},{j + 1}) = {v} has the wrong sign"
                total[i][j] += mult * v
    if total != a:
        return "parts do not add up to the matrix"
    if not _satisfies(_shrunk(want["instance"], k), *(p["matrix"] for p in out["parts"])):
        return "a part breaks the shrunk bounds"
    return None


_CHECKS = {
    "matrix": _check_matrix,
    "certificate": _check_certificate,
    "verdict": _check_verdict,
    "labels": _check_labels,
    "family": _check_family,
    "subordinate_max": _check_subordinate_max,
    "sum": _check_sum,
    "unbounded": _check_unbounded,
    "cost": _check_cost,
    "decomposition": _check_decomposition,
}


def check(want: dict, rc: int, stdout: str) -> "str | None":
    """None when the answer is right, else why it is wrong."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit code {rc} with no JSON on stdout"
    try:
        return _CHECKS[want["kind"]](want, rc, out)
    except Exception as exc:  # a malformed answer must count as wrong, not stop the run
        return f"malformed answer: {exc!r}"
