"""Verdicts and optima above the enumeration oracle's reach, checked against networkx.

The reference builds its own circulation network from the instance's
definitions.  Feasibility verdicts come from networkx's maximum flow after
the standard removal of lower bounds, on grids from 10 x 10 to 60 x 60 and
on single rows and columns of 200 to 1500 cells; every matrix and
certificate ``solve`` returns is also re-checked from the definitions.  Optima come from networkx's capacity scaling, which reports
unbounded objectives on its own (networkx 3.6's network simplex can loop
forever on unbounded instances with many open windows), on grids from
10 x 10 to 20 x 20 and on a hundred grids of 1 x 1 to 5 x 5 per
direction whose entry windows are open half the time, where bounded and
unbounded optima mix.
"""

import dataclasses
import random

import pytest

from pbm.circulation import build_network, min_cost_circulation
from pbm.core import NEG_INF, POS_INF, IntMatrix, PbmInstance, fin
from pbm.feasibility import extremal_total_sum, optimize_cost, solve
from pbm.oracle import matrix_satisfies
from pbm.strongpair import condition_values

from helpers import feasible_random, open_last_entry, random_instance

nx = pytest.importorskip("networkx")


def reference_arcs(inst: PbmInstance):
    """(tail, head, lower, upper, key) of every prefix-sum, entry and total arc.

    The row prefix up to j enters ("row", i, j) and leaves it as entry
    (i, j) plus the row prefix up to j - 1; column prefixes run down from
    ("col", i, j) likewise.  Entries carry their cell as key.
    """
    m, n = inst.m, inst.n
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            row_from = ("row", i, j + 1) if j < n else "row hub"
            col_to = ("col", i + 1, j) if i < m else "col hub"
            yield row_from, ("row", i, j), inst.phi1.at(i, j), inst.gamma1.at(i, j), None
            yield ("col", i, j), col_to, inst.phi2.at(i, j), inst.gamma2.at(i, j), None
            yield ("row", i, j), ("col", i, j), inst.f.at(i, j), inst.g.at(i, j), (i, j)
    yield "col hub", "row hub", inst.alpha, inst.beta, "total"


def shifted_graph(inst: PbmInstance, weight: dict):
    """The reference network with every lower bound removed.

    Returns (graph, demand, offset): each arc's flow is a base value plus a
    nonnegative flow on an uncapacitated or capacitated edge, ``demand``
    holds each node's net base outflow (networkx's sign convention) and
    ``offset`` the base flows' cost.
    """
    graph = nx.DiGraph()
    demand: dict = {}
    offset = 0
    for tail, head, lo, hi, key in reference_arcs(inst):
        c = weight.get(key, 0)
        if lo.is_finite:
            # flow = lo + y with y >= 0 on the arc itself
            cap = hi.value - lo.value if hi.is_finite else None
            base, edges = lo.value, [(tail, head, cap, c)]
        elif hi.is_finite:
            # flow = hi - y with y >= 0 on the reversed arc
            base, edges = hi.value, [(head, tail, None, -c)]
        else:
            base, edges = 0, [(tail, head, None, c), (head, tail, None, -c)]
        demand[tail] = demand.get(tail, 0) + base
        demand[head] = demand.get(head, 0) - base
        offset += c * base
        for a, b, cap, w in edges:
            attrs = {"weight": w}
            if cap is not None:
                attrs["capacity"] = cap
            graph.add_edge(a, b, **attrs)
    return graph, demand, offset


def reference_minimum(inst: PbmInstance, weight: dict) -> "int | None":
    """min sum(weight[key] * flow) over the instance, or None when unbounded below."""
    graph, demand, offset = shifted_graph(inst, weight)
    for node, d in demand.items():
        graph.nodes[node]["demand"] = d
    try:
        flow_cost, _ = nx.capacity_scaling(graph)
    except nx.NetworkXUnbounded:
        return None
    return offset + flow_cost


def reference_feasible(inst: PbmInstance) -> bool:
    """Whether a maximum flow from the base surpluses meets every base deficit."""
    graph, demand, _ = shifted_graph(inst, {})
    need = 0
    for node, d in demand.items():
        if d < 0:
            graph.add_edge("source", node, capacity=-d)
        elif d > 0:
            graph.add_edge(node, "sink", capacity=d)
            need += d
    return nx.maximum_flow_value(graph, "source", "sink") == need


def sizes(rng: random.Random):
    return rng.randint(10, 20), rng.randint(10, 20)


def small_open(rng: random.Random) -> PbmInstance:
    """A 1-5 x 1-5 grid around a hidden matrix, each entry side open with chance 1/2."""
    return feasible_random(rng, rng.randint(1, 5), rng.randint(1, 5), entry_inf_rate=0.5)


def check_sum(inst: PbmInstance, direction: str) -> str:
    got = extremal_total_sum(inst, direction)
    sign = -1 if direction == "max" else 1
    relaxed = dataclasses.replace(inst, alpha=NEG_INF, beta=POS_INF)
    want = reference_minimum(relaxed, {"total": sign})
    if want is None:
        assert got.status == "unbounded"
    else:
        assert (got.status, got.value) == ("optimal", sign * want)
        assert got.matrix.total() == got.value
    return got.status


@pytest.mark.parametrize("direction", ["max", "min"])
def test_total_sum_hidden_window(direction):
    rng = random.Random(f"sum:{direction}")
    statuses = set()
    for _ in range(4):
        inst = feasible_random(rng, *sizes(rng), entry_inf_rate=0.05)
        statuses.add(check_sum(inst, direction))
    assert "optimal" in statuses
    statuses = {check_sum(small_open(rng), direction) for _ in range(100)}
    assert statuses == {"optimal", "unbounded"}


def test_clamped_flow_at_k_is_not_unbounded():
    # a degenerate optimum: the clamped circulation carries -K on an open
    # side, yet the least sum is finite; unboundedness is read off prices
    inst = feasible_random(random.Random(100), 2, 2, inf_rate=0.6, entry_inf_rate=0.5)
    net = build_network(dataclasses.replace(inst, alpha=NEG_INF, beta=POS_INF))
    circ = min_cost_circulation(net, {net.a0_id: 1})
    assert net.big_k in map(abs, circ.flows)
    assert check_sum(inst, "min") == "optimal"
    assert extremal_total_sum(inst, "min").value == -2


@pytest.mark.parametrize("direction", ["max", "min"])
def test_total_sum_unbounded_by_construction(direction):
    rng = random.Random(f"open:{direction}")
    for _ in range(3):
        inst = open_last_entry(rng, feasible_random(rng, *sizes(rng)), direction)
        assert check_sum(inst, direction) == "unbounded"


def check_cost(rng: random.Random, inst: PbmInstance, direction: str, spread: int = 5) -> str:
    m, n = inst.m, inst.n
    costs = IntMatrix.from_rows([[rng.randint(-spread, spread) for _ in range(n)] for _ in range(m)])
    got = optimize_cost(inst, costs, direction)
    sign = -1 if direction == "max" else 1
    weight = {(i, j): sign * costs.at(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
    want = reference_minimum(inst, weight)
    if want is None:
        assert got.status == "unbounded"
    else:
        assert (got.status, got.value) == ("optimal", sign * want)
        assert got.value == sum(costs.at(i, j) * v for i, j, v in got.matrix.cells())
    return got.status


@pytest.mark.parametrize("direction", ["max", "min"])
def test_linear_cost(direction):
    rng = random.Random(f"cost:{direction}")
    statuses = []
    for _ in range(6):
        m, n = sizes(rng)
        open_rate = 0.4 if len(statuses) % 2 else 0.0
        inst = feasible_random(rng, m, n, inf_rate=0.3 + open_rate, entry_inf_rate=open_rate)
        statuses.append(check_cost(rng, inst, direction))
    assert "optimal" in statuses and "unbounded" in statuses
    statuses = {check_cost(rng, small_open(rng), direction) for _ in range(100)}
    assert statuses == {"optimal", "unbounded"}


@pytest.mark.parametrize("direction", ["max", "min"])
def test_linear_cost_wide_spread(direction):
    # costs in [-10^4, 10^4] take 23 to 153 priced rounds per answer here, each of
    # which stops its search at the nearest sink and moves the potentials inside it
    rng = random.Random(f"wide cost:{direction}")
    statuses = []
    for _ in range(4):
        m, n = rng.randint(10, 14), rng.randint(10, 14)
        open_rate = 0.4 if len(statuses) % 2 else 0.0
        inst = feasible_random(rng, m, n, inf_rate=0.3 + open_rate, entry_inf_rate=open_rate)
        statuses.append(check_cost(rng, inst, direction, 10**4))
    assert "optimal" in statuses and "unbounded" in statuses


def pin_entry(rng: random.Random, inst: PbmInstance) -> PbmInstance:
    """Fix one entry to a value near its finite window; the result may be infeasible."""
    i, j = rng.randint(1, inst.m), rng.randint(1, inst.n)
    value = fin(rng.randint(inst.f.at(i, j).value - 2, inst.g.at(i, j).value + 2))
    rows = {key: [list(r) for r in getattr(inst, key).rows] for key in ("f", "g")}
    rows["f"][i - 1][j - 1] = rows["g"][i - 1][j - 1] = value
    return dataclasses.replace(
        inst, **{key: getattr(inst, key).from_rows(v) for key, v in rows.items()}
    )


# family -> (instance maker, the verdicts its seeded draws must cover)
FAMILIES = {
    "random": (random_instance, {False}),
    "hidden": (feasible_random, {True}),
    "pinned": (
        lambda rng, m, n: pin_entry(rng, feasible_random(rng, m, n, inf_rate=0.2)),
        {False, True},
    ),
}


def check_verdict(inst: PbmInstance) -> bool:
    """Solve, compare the verdict with the reference and re-check the answer."""
    res = solve(inst)
    assert res.is_feasible == reference_feasible(inst)
    if res.is_feasible:
        assert matrix_satisfies(inst, res.matrix)
    else:
        cert = res.certificate
        record = condition_values(inst, cert.x1, cert.x2).by_name(cert.violated)
        assert not record.holds
        assert (record.lhs, record.rhs) == (cert.lhs, cert.rhs)
    return res.is_feasible


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_feasibility_verdicts(family):
    make, expected = FAMILIES[family]
    rng = random.Random(f"verdict:{family}")
    verdicts = {
        check_verdict(make(rng, m, n))
        for m, n in [(10, 10), (rng.randint(10, 30), rng.randint(10, 30)), (24, 45), (60, 60)]
    }
    assert verdicts == expected


def test_verdict_sweep():
    # thirty seeded draws between the fixed sizes above, so that cuts read off
    # excess stranded in many different places are each re-checked
    rng = random.Random("verdict sweep")
    verdicts = []
    for k in range(30):
        family = "pinned" if k % 2 else "random"
        inst = FAMILIES[family][0](rng, rng.randint(10, 40), rng.randint(10, 40))
        verdicts.append(check_verdict(inst))
    assert set(verdicts) == {False, True}


def test_line_verdicts():
    # single rows and columns far beyond the oracle's 9 cells, where the start
    # aims at each line's reach
    rng = random.Random("line verdicts")
    verdicts = []
    for family in sorted(FAMILIES):
        for shape in ("row", "column"):
            n = rng.randint(200, 1500)
            m_n = (1, n) if shape == "row" else (n, 1)
            verdicts.append(check_verdict(FAMILIES[family][0](rng, *m_n)))
    assert set(verdicts) == {False, True}
