"""Branch-and-bound over binary variables with conic continuous relaxations.

Binary variables here are charge/discharge/utilization gates: they do not
appear in the objective, so relaxations often return them strictly fractional
on an optimal face that *contains* integral points.  The search therefore
leans on a fix-and-resolve rounding heuristic (structure-aware when repair
hints are present) to find incumbents early, and uses best-first search with
most-fractional branching, ties broken toward the lowest variable index.
A node pins its binaries by substituting their values into the relaxation
(``with_fixed_variables``), so the cone program it solves has only the free
columns and ``restore_fixed`` puts the pinned values back into x exactly.

There is one search, written as a generator (``_search``): it yields a
``(program, start)`` pair for each cone program it needs solved, a node's
relaxation or a rounded pattern's re-solve, receives the solution and
finally returns its ``BnBResult``.  The start is a solution the search
already holds, restricted to the program's columns, its slacks fitted to
the program's rows: a rounded re-solve or an integral leaf's pinned
re-solve starts from its node's relaxation, a child node from its
parent's, and the root from the start the caller passes (the root
relaxation of an earlier, similar search, which ``BnBResult.root``
returns), or cold without one.  A start only shortens a solve: a warm
solve that fails is rescued from the cold point (see ``socp``).

``mbp_search`` runs it to a relative gap target; ``repair_search`` runs it
with the target waived, so it returns the first incumbent: normally the
repaired rounding of the root relaxation, and when that pattern is
infeasible, whichever node first yields one.  ``solve_searches`` drives
several independent searches in lockstep rounds: each round takes the
pending program of every unfinished search and solves them as one batch
(``socp.solve_socp_batch``).  A batch member's solution does not depend on
the other members, so each search visits exactly the nodes it would visit
alone, and the reported incumbent, bound and gap do not depend on which
searches run together or in what order.  ``solve_mbp`` and
``relax_and_repair`` are the batch of one.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

# solve_socp stays importable here: perfbench/tracer.py wraps miqp.solve_socp
from .socp import (  # noqa: F401
    OPTIMAL,
    INFEASIBLE,
    ITER_LIMIT,
    ConicProgram,
    ConicSolution,
    Start,
    fitted_slack,
    solve_socp,
    solve_socp_batch,
)

__all__ = [
    "RepairHints",
    "MixedBinaryProgram",
    "BnBResult",
    "solve_mbp",
    "relax_and_repair",
    "mbp_search",
    "repair_search",
    "solve_searches",
    "with_fixed_variables",
    "restore_fixed",
]

_INT_TOL = 1e-6


@dataclass(frozen=True)
class RepairHints:
    """Structure metadata for rounding repairs on scheduling programs.

    gates: binary index -> indices of the power variables it switches.
    exclusive_pairs: binary pairs that may not both be 1 in the same hour.
    count_groups: (binary indices, max count of ones) budget constraints.
    """

    gates: dict[int, tuple[int, ...]] = field(default_factory=dict)
    exclusive_pairs: tuple[tuple[int, int], ...] = ()
    count_groups: tuple[tuple[tuple[int, ...], int], ...] = ()


@dataclass
class MixedBinaryProgram:
    relaxation: ConicProgram
    binary_indices: tuple[int, ...]
    hints: RepairHints | None = None


@dataclass
class BnBResult:
    status: str
    x_incumbent: np.ndarray | None
    obj_incumbent: float
    gap: float
    nodes_explored: int
    bound: float = float("-inf")
    # the root relaxation's (x, y, s, z), x over all columns; None unless optimal
    root: Start | None = None


def _split(n: int, fixed: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the n columns not in ``fixed``, and the n-vector of fixed values (0 elsewhere)."""
    idx = sorted(fixed)
    values = np.zeros(n)
    values[idx] = [fixed[i] for i in idx]
    return np.delete(np.arange(n), idx), values


def with_fixed_variables(prog: ConicProgram, fixed: dict[int, float]) -> ConicProgram:
    """Substitute the given variables by their values.

    The result keeps every row and cone of ``prog`` and drops the fixed
    columns; their terms move into ``b``, ``h`` and ``c0``, so objective values
    and row duals carry over unchanged.  ``restore_fixed`` maps its x back.
    """
    if not fixed:
        return prog
    keep, xf = _split(prog.n_vars, fixed)
    return ConicProgram(
        c=prog.c[keep],
        A=prog.A[:, keep],
        b=prog.b - prog.A @ xf,
        G=prog.G[:, keep],
        h=prog.h - prog.G @ xf,
        cones=prog.cones,
        q=prog.q[keep],
        c0=prog.objective(xf),
    )


def restore_fixed(x: np.ndarray, fixed: dict[int, float]) -> np.ndarray:
    """The full x for a solution x of ``with_fixed_variables(prog, fixed)``."""
    keep, out = _split(len(x) + len(fixed), fixed)
    out[keep] = x
    return out


def _round_assignment(
    x: np.ndarray, prob: MixedBinaryProgram
) -> dict[int, float]:
    """Round binaries, preferring gate activity over raw 0.5 thresholding,
    then repair exclusivity (keep the side moving more power) and count
    budgets (keep the busiest hours; ties keep the lowest index)."""
    h = prob.hints
    assign: dict[int, float] = {}
    activity: dict[int, float] = {}
    for i in prob.binary_indices:
        if h is not None and i in h.gates:
            act = max((abs(float(x[j])) for j in h.gates[i]), default=0.0)
            assign[i] = 1.0 if act > 1e-7 else 0.0
            activity[i] = act
        else:
            assign[i] = 1.0 if x[i] > 0.5 else 0.0
            activity[i] = float(x[i])
    if h is not None:
        for i, j in h.exclusive_pairs:
            if assign.get(i) == 1.0 and assign.get(j) == 1.0:
                if activity[i] >= activity[j]:
                    assign[j] = 0.0
                else:
                    assign[i] = 0.0
        for members, max_count in h.count_groups:
            ones = [i for i in members if assign.get(i) == 1.0]
            if len(ones) > max_count:
                ones.sort(key=lambda i: (-activity[i], i))
                for i in ones[max_count:]:
                    assign[i] = 0.0
    return assign


# a search yields the cone programs it needs solved, each with its start, is
# sent their solutions and returns its result
Search = Generator[tuple[ConicProgram, Start | None], ConicSolution, BnBResult]


def mbp_search(
    prob: MixedBinaryProgram,
    mip_gap: float = 1e-6,
    node_limit: int = 50_000,
    start: Start | None = None,
) -> Search:
    """Best-first branch and bound with a certified optimality gap, as a search.

    Branches on the most fractional binary (closest to 0.5, lowest index on
    ties); hitting ``node_limit`` returns the best incumbent, if any, with an
    honest gap and status iter_limit; only a search that runs out of open
    nodes without an incumbent, every node proven, reports infeasible.  The
    root relaxation starts from ``start`` (x over all columns), or cold.
    """
    if mip_gap <= 0:
        raise ValueError("mip_gap must be positive")
    return _search(prob, mip_gap, node_limit, start)


def repair_search(prob: MixedBinaryProgram, start: Start | None = None) -> Search:
    """Fast path for storage/flexible-load subproblems: the first incumbent.

    The search of ``mbp_search`` with the gap target waived.  The root
    relaxation's gates are rounded and repaired (netting simultaneous
    charge/discharge toward the larger power, trimming count budgets) and
    the continuous variables re-solved; if that pattern is infeasible, the
    search branches on until some node yields an incumbent.  The root
    relaxation starts from ``start``, as in ``mbp_search``.
    """
    return _search(prob, math.inf, 50_000, start)


def solve_searches(searches: list[Search]) -> list[BnBResult]:
    """Run independent searches to completion in lockstep rounds.

    Each round solves the pending program of every unfinished search as one
    batch, in the order of ``searches``, each from the start its search
    gave, and hands each search its solution.
    """
    results: list[BnBResult | None] = [None] * len(searches)
    pending: dict[int, tuple[ConicProgram, Start | None]] = {}

    def advance(i: int, sol: ConicSolution | None) -> None:
        try:
            pending[i] = next(searches[i]) if sol is None else searches[i].send(sol)
        except StopIteration as stop:
            results[i] = stop.value
            pending.pop(i, None)

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        order = sorted(pending)
        progs, starts = zip(*(pending[i] for i in order))
        for i, sol in zip(order, solve_socp_batch(list(progs), starts=list(starts))):
            advance(i, sol)
    return results


def solve_mbp(
    prob: MixedBinaryProgram,
    mip_gap: float = 1e-6,
    node_limit: int = 50_000,
) -> BnBResult:
    """Best-first branch and bound to a relative gap: ``mbp_search`` run on its own."""
    return solve_searches([mbp_search(prob, mip_gap, node_limit)])[0]


def relax_and_repair(prob: MixedBinaryProgram) -> BnBResult:
    """The first incumbent of the search: ``repair_search`` run on its own."""
    return solve_searches([repair_search(prob)])[0]


def _pinned(
    prob: MixedBinaryProgram, fixed: dict[int, float], start: Start | None
) -> tuple[ConicProgram, Start | None]:
    """The relaxation with ``fixed`` substituted, and its start: ``start``
    (over all columns) restricted to the columns kept, with the slacks
    fitted to the pinned program's rows at that x (``socp.fitted_slack``)."""
    prog = with_fixed_variables(prob.relaxation, fixed)
    if start is None or not fixed:
        return prog, start
    x, y, _, z = start
    keep, _ = _split(len(x), fixed)
    return prog, (x[keep], y, fitted_slack(prog, x[keep]), z)


def _search(
    prob: MixedBinaryProgram, mip_gap: float, node_limit: int, root_start: Start | None
) -> Search:
    """The branch-and-bound loop; stops once the incumbent is within ``mip_gap``.

    Yields every cone program it needs solved, with its start, and receives
    its solution.  Nodes pin binaries by substitution.  A node is pruned when
    its relaxation ends infeasible or unbounded, which the solver reports
    only with a certificate; one that ends iter_limit, without an answer or
    a certificate, proves nothing, so it keeps its parent's bound.  The
    reported bound is the least of the incumbent, the open nodes' bounds,
    the relaxations of the nodes closed by the gap test and the bounds of
    the unproven nodes.  A search with an unproven node cannot end
    infeasible: it ends iter_limit unless its gap test, with their bounds,
    still holds.
    """
    bins = tuple(sorted(prob.binary_indices))
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    closed = math.inf
    unproven = math.inf
    nodes = 0
    counter = 0
    root: Start | None = None
    # open nodes: (bound, tie-breaker, pinned binaries, start over all columns)
    heap: list[tuple[float, int, dict[int, float], Start | None]] = [
        (-math.inf, counter, {}, root_start)
    ]

    def rel_gap(bound: float) -> float:
        if incumbent_x is None:
            return math.inf
        return abs(bound - incumbent_obj) / (1.0 + abs(incumbent_obj))

    def offer(assign: dict[int, float], start: Start, sol=None):
        """Take the program with ``assign`` substituted (solved as ``sol``, if
        given, else from ``start``) as incumbent when it improves."""
        nonlocal incumbent_x, incumbent_obj
        if sol is None:
            sol = yield _pinned(prob, assign, start)
        if sol.status == OPTIMAL and sol.obj < incumbent_obj - 1e-12:
            incumbent_x, incumbent_obj = restore_fixed(sol.x, assign), sol.obj

    def result(status: str, bound: float) -> BnBResult:
        bound = min(bound, closed, unproven, incumbent_obj)
        return BnBResult(status, incumbent_x, incumbent_obj, rel_gap(bound), nodes, bound, root)

    while heap:
        bound, _, fixed, start = heapq.heappop(heap)
        if incumbent_x is not None and rel_gap(min(bound, closed, unproven)) <= mip_gap:
            return result(OPTIMAL, bound)
        if nodes >= node_limit:
            # stopped, not exhausted: without an incumbent nothing is proven
            return result(ITER_LIMIT, bound)
        nodes += 1
        sol = yield _pinned(prob, fixed, start)
        if sol.status != OPTIMAL:
            if sol.status == ITER_LIMIT:
                unproven = min(unproven, bound)
            continue
        x = restore_fixed(sol.x, fixed)
        relaxed = (x, sol.y, sol.s, sol.z)
        if nodes == 1:
            root = relaxed
        if incumbent_x is not None and sol.obj >= incumbent_obj - 1e-12:
            continue
        frac = [(abs(x[i] - 0.5), i) for i in bins if abs(x[i] - round(x[i])) > _INT_TOL]
        if not frac:
            # integral leaf: pin the rounded binaries unless they already are
            assign = {i: float(round(x[i])) for i in bins}
            yield from offer(assign, relaxed, sol if assign == fixed else None)
            continue
        if incumbent_x is None or nodes % 8 == 1:
            assign = _round_assignment(x, prob)
            assign.update(fixed)
            yield from offer(assign, relaxed)
            if incumbent_x is not None and rel_gap(sol.obj) <= mip_gap:
                closed = min(closed, sol.obj)
                continue
        _, branch_var = min(frac)
        for v in (0.0, 1.0):
            counter += 1
            heapq.heappush(heap, (sol.obj, counter, {**fixed, branch_var: v}, relaxed))

    if unproven < math.inf and (incumbent_x is None or rel_gap(min(closed, unproven)) > mip_gap):
        return result(ITER_LIMIT, math.inf)
    return result(OPTIMAL if incumbent_x is not None else INFEASIBLE, math.inf)
