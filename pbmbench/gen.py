"""Frozen, seeded input generators.

Every document is written here from scratch in the formats of
docs/schema.md.  Nothing is imported from ``pbm`` or from the test suite,
so a later refactor of either cannot change what the benchmark runs; the
SHA-256 fingerprints in ``fingerprints.json`` catch any change made here.
"""

from __future__ import annotations

import random

INF = "+inf"
NINF = "-inf"


def row_prefixes(mat: list[list[int]]) -> list[list[int]]:
    out = []
    for row in mat:
        s, acc = 0, []
        for v in row:
            s += v
            acc.append(s)
        out.append(acc)
    return out


def col_prefixes(mat: list[list[int]]) -> list[list[int]]:
    m, n = len(mat), len(mat[0])
    out = [[0] * n for _ in range(m)]
    for j in range(n):
        s = 0
        for i in range(m):
            s += mat[i][j]
            out[i][j] = s
    return out


def instance_doc(m, n, phi1, gamma1, phi2, gamma2, f=None, g=None, alpha=None, beta=None) -> dict:
    doc = {"m": m, "n": n, "phi1": phi1, "gamma1": gamma1, "phi2": phi2, "gamma2": gamma2}
    if f is not None:
        doc["f"] = f
    if g is not None:
        doc["g"] = g
    if alpha is not None:
        doc["alpha"] = alpha
    if beta is not None:
        doc["beta"] = beta
    return doc


def hidden_window(rng: random.Random, m: int, n: int, scale: int, inf_rate: float = 0.3):
    """(instance, hidden matrix): windows widened around a hidden matrix.

    Entries of the hidden matrix lie in [-2s, 2s]; every prefix window
    contains the hidden prefix sum with slack up to 2s on each side or is
    infinite on that side; entry windows have slack up to s.  Feasible by
    construction.
    """
    hidden = [[rng.randint(-2 * scale, 2 * scale) for _ in range(n)] for _ in range(m)]
    h, v = row_prefixes(hidden), col_prefixes(hidden)

    def lo(x):
        return NINF if rng.random() < inf_rate else x - rng.randint(0, 2 * scale)

    def hi(x):
        return INF if rng.random() < inf_rate else x + rng.randint(0, 2 * scale)

    phi1 = [[lo(h[i][j]) for j in range(n)] for i in range(m)]
    gamma1 = [[hi(h[i][j]) for j in range(n)] for i in range(m)]
    phi2 = [[lo(v[i][j]) for j in range(n)] for i in range(m)]
    gamma2 = [[hi(v[i][j]) for j in range(n)] for i in range(m)]
    f = [[hidden[i][j] - rng.randint(0, scale) for j in range(n)] for i in range(m)]
    g = [[hidden[i][j] + rng.randint(0, scale) for j in range(n)] for i in range(m)]
    total = sum(map(sum, hidden))
    doc = instance_doc(m, n, phi1, gamma1, phi2, gamma2, f, g, lo(total), hi(total))
    return doc, hidden


def random_window(rng: random.Random, m: int, n: int, scale: int, inf_rate: float = 0.25) -> dict:
    """Independent random windows; large grids are almost never feasible."""

    def window():
        a = None if rng.random() < inf_rate else rng.randint(-3 * scale, 3 * scale)
        base = -3 * scale if a is None else a
        b = None if rng.random() < inf_rate else rng.randint(max(base, -3 * scale), 3 * scale)
        return (NINF if a is None else a), (INF if b is None else b)

    tables = [[[None] * n for _ in range(m)] for _ in range(6)]
    phi1, gamma1, phi2, gamma2, f, g = tables
    for i in range(m):
        for j in range(n):
            phi1[i][j], gamma1[i][j] = window()
            phi2[i][j], gamma2[i][j] = window()
            a = rng.randint(-2 * scale, 2 * scale)
            f[i][j], g[i][j] = a, rng.randint(a, 2 * scale)
    alpha = NINF if rng.random() < 0.6 else rng.randint(-6 * scale, 6 * scale)
    floor = -6 * scale if alpha == NINF else alpha
    beta = INF if rng.random() < 0.6 else rng.randint(floor, 8 * scale)
    return instance_doc(m, n, phi1, gamma1, phi2, gamma2, f, g, alpha, beta)


def k_regular_doc(n: int, k: int) -> dict:
    """Entries in {-1, 0, 1}, prefix sums in [0, k], every line sum k (k = 1: ASMs)."""
    return instance_doc(
        n,
        n,
        phi1=[[0] * (n - 1) + [k] for _ in range(n)],
        gamma1=[[k] * n for _ in range(n)],
        phi2=[[0 if i < n - 1 else k] * n for i in range(n)],
        gamma2=[[k] * n for _ in range(n)],
        f=[[-1] * n for _ in range(n)],
        g=[[1] * n for _ in range(n)],
    )


def staircase_doc(n: int) -> dict:
    """1 x n, entries in [0, 1], gamma1(1, j) = ceil(j/2), all else infinite."""
    return instance_doc(
        1,
        n,
        phi1=[[NINF] * n],
        gamma1=[[(j + 1) // 2 for j in range(1, n + 1)]],
        phi2=[[NINF] * n],
        gamma2=[[INF] * n],
        f=[[0] * n],
        g=[[1] * n],
    )


def unbounded_sum(rng: random.Random, m: int, n: int, direction: str) -> dict:
    """A feasible window instance with one entry free to grow in ``direction``.

    Entry (i, n) sits alone at the end of its row's prefix chain and feeds
    the vertical prefixes of column n from row i on; opening those windows
    and the entry window on one side makes the total sum unbounded there.
    """
    doc, _ = hidden_window(rng, m, n, 1)
    i = rng.randrange(m)
    if direction == "max":
        doc["gamma1"][i][n - 1] = INF
        doc["g"][i][n - 1] = INF
        for r in range(i, m):
            doc["gamma2"][r][n - 1] = INF
    else:
        doc["phi1"][i][n - 1] = NINF
        doc["f"][i][n - 1] = NINF
        for r in range(i, m):
            doc["phi2"][r][n - 1] = NINF
    return doc


def _line_ok(seq, k: int) -> bool:
    s = 0
    for v in seq:
        if v not in (-1, 0, 1):
            return False
        s += v
        if s < 0 or s > k:
            return False
    return s == k


def k_regular_matrix(rng: random.Random, n: int, k: int, moves: int) -> list[list[int]]:
    """A random k-regular (0, +-1) matrix; k = 1 gives an ASM.

    Starts from k disjoint permutation matrices (shifted copies of one
    random permutation) and applies random 2x2 moves [[+1, -1], [-1, +1]]
    (or their negation), keeping a move only when the four touched lines
    stay valid.  Line sums never change, so the result stays k-regular.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    shifts = rng.sample(range(n), k)
    a = [[0] * n for _ in range(n)]
    for t in shifts:
        for i in range(n):
            a[i][(perm[i] + t) % n] = 1
    for _ in range(moves):
        i, i2 = sorted(rng.sample(range(n), 2))
        j, j2 = sorted(rng.sample(range(n), 2))
        s = rng.choice((1, -1))
        delta = ((i, j, s), (i, j2, -s), (i2, j, -s), (i2, j2, s))
        for r, c, d in delta:
            a[r][c] += d
        ok = all(_line_ok(a[r], k) for r in (i, i2)) and all(
            _line_ok([a[r][c] for r in range(n)], k) for c in (j, j2)
        )
        if not ok:
            for r, c, d in delta:
                a[r][c] -= d
    return a


def random_asm(rng: random.Random, n: int) -> list[list[int]]:
    return k_regular_matrix(rng, n, 1, moves=4 * n * n)


def feasible_labels(rng: random.Random, asm: list[list[int]]) -> list[list[str]]:
    """A partition label grid that the given ASM honours."""
    choices = {0: ("0", "+", "-", "F", "F"), 1: ("+1", "+", "F"), -1: ("-1", "-", "F")}
    return [[rng.choice(choices[v]) for v in row] for row in asm]


def infeasible_labels(rng: random.Random, n: int) -> list[list[str]]:
    """A label grid no ASM honours, with random labels elsewhere.

    One of three defects is planted: a forced -1 on the border (the first
    and last nonzero of every line are +1), two forced +1 side by side in a
    row (a prefix sum would reach 2), or a row whose labels forbid +1 (the
    row sum must be 1).
    """
    labels = [[rng.choice(("F", "F", "F", "+", "-", "0")) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    i = rng.randrange(n)
    if kind == 0:
        border = rng.choice(
            [(0, rng.randrange(n)), (n - 1, rng.randrange(n)), (rng.randrange(n), 0), (rng.randrange(n), n - 1)]
        )
        labels[border[0]][border[1]] = "-1"
    elif kind == 1:
        j = rng.randrange(n - 1)
        labels[i][j] = labels[i][j + 1] = "+1"
    else:
        labels[i] = [rng.choice(("0", "-")) for _ in range(n)]
    return labels


def sign_matrix_over(rng: random.Random, asm: list[list[int]], extra: int) -> list[list[int]]:
    """The ASM plus ``extra`` random nonzeros on its zero cells: a subordinate ASM exists."""
    x = [row[:] for row in asm]
    n = len(x)
    zeros = [(i, j) for i in range(n) for j in range(n) if x[i][j] == 0]
    for i, j in rng.sample(zeros, min(extra, len(zeros))):
        x[i][j] = rng.choice((1, -1))
    return x


def sign_matrix_without(rng: random.Random, n: int, extra: int) -> list[list[int]]:
    """A sign matrix with one row free of +1: no ASM is subordinate to it."""
    x = sign_matrix_over(rng, random_asm(rng, n), extra)
    i = rng.randrange(n)
    x[i] = [-1 if (v == 1 or rng.random() < 0.2) else v for v in x[i]]
    return x


def completable_prescription(rng: random.Random, asm: list[list[int]], count: int) -> list[list[int]]:
    n = len(asm)
    cells = rng.sample([(i, j) for i in range(n) for j in range(n)], count)
    return [[i + 1, j + 1, asm[i][j]] for i, j in sorted(cells)]


def contradictory_prescription(rng: random.Random, asm: list[list[int]], count: int) -> list[list[int]]:
    """Entries of one ASM plus two adjacent +1 in one row, which no ASM has."""
    n = len(asm)
    i, j = rng.randrange(n), rng.randrange(n - 1)
    pins = {(i + 1, j + 1): 1, (i + 1, j + 2): 1}
    for r, c, v in completable_prescription(rng, asm, count):
        pins.setdefault((r, c), v)
    return [[r, c, v] for (r, c), v in sorted(pins.items())]


def cost_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
