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

There is one search, written as a generator (``_search``): it yields each
cone program it needs solved, a node's relaxation or a rounded pattern's
re-solve, receives the solution and finally returns its ``BnBResult``.
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

    @property
    def solution(self) -> np.ndarray:
        if self.x_incumbent is None:
            raise ValueError("no incumbent available")
        return self.x_incumbent


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


# a search yields the cone programs it needs solved, is sent their solutions
# and returns its result
Search = Generator[ConicProgram, ConicSolution, BnBResult]


def mbp_search(
    prob: MixedBinaryProgram, mip_gap: float = 1e-6, node_limit: int = 50_000
) -> Search:
    """Best-first branch and bound with a certified optimality gap, as a search.

    Branches on the most fractional binary (closest to 0.5, lowest index on
    ties); hitting ``node_limit`` returns the best incumbent with an honest
    gap and status iter_limit.
    """
    if mip_gap <= 0:
        raise ValueError("mip_gap must be positive")
    return _search(prob, mip_gap, node_limit)


def repair_search(prob: MixedBinaryProgram) -> Search:
    """Fast path for storage/flexible-load subproblems: the first incumbent.

    The search of ``mbp_search`` with the gap target waived.  The root
    relaxation's gates are rounded and repaired (netting simultaneous
    charge/discharge toward the larger power, trimming count budgets) and
    the continuous variables re-solved; if that pattern is infeasible, the
    search branches on until some node yields an incumbent.
    """
    return _search(prob, math.inf, 50_000)


def solve_searches(searches: list[Search], tol: float = 1e-8) -> list[BnBResult]:
    """Run independent searches to completion in lockstep rounds.

    Each round solves the pending program of every unfinished search as one
    batch, in the order of ``searches``, and hands each search its solution.
    """
    results: list[BnBResult | None] = [None] * len(searches)
    pending: dict[int, ConicProgram] = {}

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
        for i, sol in zip(order, solve_socp_batch([pending[i] for i in order], tol=tol)):
            advance(i, sol)
    return results


def solve_mbp(
    prob: MixedBinaryProgram,
    mip_gap: float = 1e-6,
    node_limit: int = 50_000,
    tol: float = 1e-8,
) -> BnBResult:
    """Best-first branch and bound to a relative gap: ``mbp_search`` run on its own."""
    return solve_searches([mbp_search(prob, mip_gap, node_limit)], tol)[0]


def relax_and_repair(prob: MixedBinaryProgram, tol: float = 1e-8) -> BnBResult:
    """The first incumbent of the search: ``repair_search`` run on its own."""
    return solve_searches([repair_search(prob)], tol)[0]


def _search(prob: MixedBinaryProgram, mip_gap: float, node_limit: int) -> Search:
    """The branch-and-bound loop; stops once the incumbent is within ``mip_gap``.

    Yields every cone program it needs solved and receives its solution.
    Nodes pin binaries by substitution.  The reported bound is the least of
    the incumbent, the open nodes' bounds and the relaxations of the nodes
    closed by the gap test.
    """
    bins = tuple(sorted(prob.binary_indices))
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    closed = math.inf
    nodes = 0
    counter = 0
    heap: list[tuple[float, int, dict[int, float]]] = [(-math.inf, counter, {})]

    def rel_gap(bound: float) -> float:
        if incumbent_x is None:
            return math.inf
        return abs(bound - incumbent_obj) / (1.0 + abs(incumbent_obj))

    def offer(assign: dict[int, float], sol=None):
        """Take the program with ``assign`` substituted (solved as ``sol``,
        if given) as incumbent when it improves."""
        nonlocal incumbent_x, incumbent_obj
        if sol is None:
            sol = yield with_fixed_variables(prob.relaxation, assign)
        if sol.status == OPTIMAL and sol.obj < incumbent_obj - 1e-12:
            incumbent_x, incumbent_obj = restore_fixed(sol.x, assign), sol.obj

    def result(status: str, bound: float) -> BnBResult:
        bound = min(bound, closed, incumbent_obj)
        return BnBResult(status, incumbent_x, incumbent_obj, rel_gap(bound), nodes, bound)

    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if incumbent_x is not None and rel_gap(min(bound, closed)) <= mip_gap:
            return result(OPTIMAL, bound)
        if nodes >= node_limit:
            return result(ITER_LIMIT if incumbent_x is not None else INFEASIBLE, bound)
        nodes += 1
        sol = yield with_fixed_variables(prob.relaxation, fixed)
        if sol.status != OPTIMAL:
            continue  # infeasible or diverging branch: prune
        if incumbent_x is not None and sol.obj >= incumbent_obj - 1e-12:
            continue
        x = restore_fixed(sol.x, fixed)
        frac = [(abs(x[i] - 0.5), i) for i in bins if abs(x[i] - round(x[i])) > _INT_TOL]
        if not frac:
            # integral leaf: pin the rounded binaries unless they already are
            assign = {i: float(round(x[i])) for i in bins}
            yield from offer(assign, sol if assign == fixed else None)
            continue
        if incumbent_x is None or nodes % 8 == 1:
            assign = _round_assignment(x, prob)
            assign.update(fixed)
            yield from offer(assign)
            if incumbent_x is not None and rel_gap(sol.obj) <= mip_gap:
                closed = min(closed, sol.obj)
                continue
        _, branch_var = min(frac)
        for v in (0.0, 1.0):
            counter += 1
            heapq.heappush(heap, (sol.obj, counter, {**fixed, branch_var: v}))

    return result(OPTIMAL if incumbent_x is not None else INFEASIBLE, math.inf)
