"""Spans and counts recorded around the calls each layer makes.

The tracer replaces module attributes of the installed program with timing
wrappers, so the program itself carries no instrumentation.  A span is
``[name, start, end, parent, run]``; ``parent`` indexes ``spans`` (-1 for a
root) and ``run`` numbers the traced clearing.  Counts come from the public
return values the wrapped calls hand back.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

def _socp(layer: str):
    def note(stats: Counter, args, out) -> None:
        from lemclear.socp import OPTIMAL

        stats[f"{layer}.socp_iters"] += out.iterations
        stats[f"{layer}.socp_failed"] += out.status != OPTIMAL
        stats[f"{layer}.socp_vars"] = args[0].n_vars
        stats[f"{layer}.socp_rows"] = args[0].n_eq
    return note


def _nodes(stats: Counter, args, out) -> None:
    stats["miqp.nodes"] += out.nodes_explored


def _fallback(stats: Counter, args, out) -> None:
    stats["miqp.fallbacks"] += 1


# (module, attribute, span name, count hook); the caller-side attribute is
# wrapped wherever a layer imported a name, so the span sits on the boundary
TARGETS = [
    ("lemclear.market", "run_clearing", "market", None),
    ("lemclear.oracle", "solve_centralized", "oracle", None),
    ("lemclear.market", "MessageBus.send", "market.bus", None),
    ("lemclear.market", "solve_subproblem_III", "prosumer", None),
    ("lemclear.prosumer", "build_subproblem", "prosumer.build", None),
    ("lemclear.prosumer", "solve_mbp", "miqp", _nodes),
    ("lemclear.prosumer", "relax_and_repair", "miqp", _nodes),
    ("lemclear.miqp", "solve_mbp", "miqp", _fallback),
    ("lemclear.miqp", "solve_socp", "miqp.socp", _socp("miqp")),
    ("lemclear.market", "solve_dso_subproblem", "dso", None),
    ("lemclear.dso", "assemble_branch_flow", "dso.assemble", None),
    ("lemclear.dso", "solve_socp", "dso.socp", _socp("dso")),
    ("lemclear.oracle", "solve_socp", "oracle.socp", _socp("oracle")),
] + [
    ("lemclear.lmo", fn, "lmo", None)
    for fn in (
        "aggregate_to_nodes",
        "solve_subproblem_I",
        "update_loss_dual",
        "map_dlmp_to_prosumers",
        "update_power_dual",
    )
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str, hook) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.stats[self.run], args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __enter__(self) -> "Tracer":
        for module, dotted, name, hook in TARGETS:
            owner = importlib.import_module(module)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name, hook)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.run += 1

    def summary(self, run: int) -> dict:
        """Self seconds, call counts, durations and hook counts of one run."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent, r in self.spans:
            if r != run:
                continue
            calls[name] += 1
            durations[name].append(end - start)
            self_s[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                self_s[p[0]] -= end - start
        return {"self_s": self_s, "calls": calls, "durations": durations, "stats": self.stats[run]}
