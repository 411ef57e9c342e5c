"""Outside-in tracer: spans around calls into pbm's public functions.

The tracer replaces each traced function in every ``pbm`` module that
binds it (``feasibility``, ``asmkit``, ``decompose`` and ``cli`` import
names directly, so one wrapper in the defining module would miss their
calls).  Modules are reached through ``sys.modules``: ``pbm.decompose``
as an attribute of the package is the function that ``pbm/__init__.py``
re-exports over the submodule's name.  A traced name that no longer
exists makes its layer absent instead of failing the run.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, function name)
SPANS = {
    "cli.main": ("pbm.cli", "main"),
    "core.parse": ("pbm.core", "instance_from_json"),
    "circulation.build": ("pbm.circulation", "network_from_bounds"),
    "circulation.maxflow": ("pbm.circulation", "find_feasible_circulation"),
    "circulation.mincost": ("pbm.circulation", "min_cost_circulation"),
    "circulation.verify": ("pbm.circulation", "circulation_from_matrix"),
    "circulation.cut": ("pbm.circulation", "cut_to_certificate"),
    "strongpair.condition": ("pbm.strongpair", "condition_values"),
    "segments.maximal_segments": ("pbm.segments", "maximal_segments"),
    "feasibility.solve": ("pbm.feasibility", "solve"),
    "feasibility.solve_with_prescription": ("pbm.feasibility", "solve_with_prescription"),
    "feasibility.extremal_total_sum": ("pbm.feasibility", "extremal_total_sum"),
    "feasibility.optimize_cost": ("pbm.feasibility", "optimize_cost"),
    "asmkit.compatible_asm": ("pbm.asmkit", "compatible_asm"),
    "asmkit.subordinate_asm": ("pbm.asmkit", "subordinate_asm"),
    "asmkit.max_plus_ones_subordinate": ("pbm.asmkit", "max_plus_ones_subordinate"),
    "decompose.decompose": ("pbm.decompose", "decompose"),
    "decompose.shrink_instance": ("pbm.decompose", "shrink_instance"),
}

# Counted into core.prefix_calls, never timed: each call is O(n) and very frequent.
PREFIX_METHODS = [("pbm.core", "IntMatrix", "h_prefix"), ("pbm.core", "IntMatrix", "v_prefix")]

OPTIMIZERS = ("feasibility.extremal_total_sum", "feasibility.optimize_cost")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.spans: list[tuple] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [name, start, child seconds, span id]
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, (mod_name, attr) in SPANS.items():
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            self._rebind(fn, self._wrap(name, fn))
        for mod_name, cls_name, meth in PREFIX_METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.absent.append(f"core.prefix_calls ({cls_name}.{meth})")
                continue
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._counter("core.prefix_calls", fn))

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` under every name any pbm module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pbm" or mod_name.startswith("pbm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn)
        takes_info = "info" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            info = None
            if takes_info:
                bound = sig.bind(*args, **kwargs)
                info = bound.arguments.get("info")
                if info is None:
                    info = bound.arguments["info"] = {}
                args, kwargs = bound.args, bound.kwargs
            inner0 = self.counts["circulation.augmentations"]
            aug0 = info.get("augmentations", 0) if info is not None else 0
            parent = self._stack[-1][3] if self._stack else None
            frame = [name, time.perf_counter(), 0.0, self._next_id]
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += dur
                self.inclusive[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
                self.spans.append((frame[3], parent, self.op, name, frame[1], end))
            if hook is not None:
                aug = info.get("augmentations", 0) - aug0 if info is not None else 0
                hook(self, result, aug, self.counts["circulation.augmentations"] - inner0)
            return result

        return wrapper

    def in_span(self, names) -> bool:
        """Whether a span with one of ``names`` is open."""
        return any(frame[0] in names for frame in self._stack)

    # -- reporting ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "absent": self.absent,
                    "fields": ["id", "parent", "op", "name", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


def _on_build(tr: Tracer, net, aug: int, inner: int) -> None:
    tr.counts["circulation.arcs"] += len(getattr(net, "arcs", ()))
    if tr.in_span(("decompose.decompose",)):
        tr.counts["decompose.builds"] += 1


def _on_maxflow(tr: Tracer, result, aug: int, inner: int) -> None:
    tr.counts["circulation.augmentations"] += aug


def _on_mincost(tr: Tracer, result, aug: int, inner: int) -> None:
    """``aug`` counts the whole call, ``inner`` the max-flow it ran first."""
    tr.counts["circulation.mincost_augmentations"] += aug - inner
    if tr.in_span(OPTIMIZERS):
        tr.counts["feasibility.mincost_in_optimization"] += 1


_HOOKS = {
    "circulation.build": _on_build,
    "circulation.maxflow": _on_maxflow,
    "circulation.mincost": _on_mincost,
}
