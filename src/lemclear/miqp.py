"""Branch-and-bound over binary variables with conic continuous relaxations.

Binary variables here are charge/discharge/utilization gates: they do not
appear in the objective, so relaxations often return them strictly fractional
on an optimal face that *contains* integral points.  The search therefore
leans on a fix-and-resolve rounding heuristic (structure-aware when repair
hints are present) to find incumbents early, and uses best-first search with
most-fractional branching, ties broken toward the lowest variable index.
Node processing is sequential and fully deterministic; the reported incumbent
and gap do not depend on any execution schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .socp import OPTIMAL, INFEASIBLE, ITER_LIMIT, ConicProgram, solve_socp

__all__ = [
    "RepairHints",
    "MixedBinaryProgram",
    "BnBResult",
    "solve_mbp",
    "relax_and_repair",
    "with_fixed_variables",
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


def with_fixed_variables(prog: ConicProgram, fixed: dict[int, float]) -> ConicProgram:
    """Append equality rows pinning the given variables."""
    if not fixed:
        return prog
    idx = sorted(fixed)
    rows = sp.csr_matrix(
        (np.ones(len(idx)), (np.arange(len(idx)), idx)),
        shape=(len(idx), prog.n_vars),
    )
    return replace(
        prog,
        A=sp.vstack([prog.A, rows], format="csr"),
        b=np.concatenate([prog.b, np.array([fixed[i] for i in idx], dtype=float)]),
    )


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


def solve_mbp(
    prob: MixedBinaryProgram,
    mip_gap: float = 1e-6,
    node_limit: int = 50_000,
    tol: float = 1e-8,
) -> BnBResult:
    """Best-first branch and bound with a certified optimality gap.

    Branches on the most fractional binary (closest to 0.5, lowest index on
    ties); hitting ``node_limit`` returns the best incumbent with an honest
    gap and status iter_limit.
    """
    if mip_gap <= 0:
        raise ValueError("mip_gap must be positive")
    bins = tuple(sorted(prob.binary_indices))

    if not bins:
        sol = solve_socp(prob.relaxation, tol=tol)
        ok = sol.status == OPTIMAL
        return BnBResult(
            status=sol.status,
            x_incumbent=sol.x if ok else None,
            obj_incumbent=sol.obj if ok else float("inf"),
            gap=0.0 if ok else float("inf"),
            nodes_explored=1,
            bound=sol.obj if ok else float("-inf"),
        )

    incumbent_x: np.ndarray | None = None
    incumbent_obj = float("inf")
    nodes = 0
    counter = 0
    heap: list[tuple[float, int, dict[int, float]]] = []

    def rel_gap(bound: float) -> float:
        if incumbent_x is None:
            return float("inf")
        return abs(bound - incumbent_obj) / (1.0 + abs(incumbent_obj))

    def try_heuristic(x: np.ndarray, fixed: dict[int, float]) -> None:
        nonlocal incumbent_x, incumbent_obj
        assign = _round_assignment(x, prob)
        assign.update(fixed)
        sol = solve_socp(with_fixed_variables(prob.relaxation, assign), tol=tol)
        if sol.status == OPTIMAL and sol.obj < incumbent_obj - 1e-12:
            xi = sol.x.copy()
            for i, v in assign.items():
                xi[i] = v
            incumbent_x, incumbent_obj = xi, sol.obj

    heapq.heappush(heap, (float("-inf"), counter, {}))
    best_bound = float("-inf")
    while heap:
        bound, _, fixed = heapq.heappop(heap)
        best_bound = bound if not heap else min(bound, heap[0][0])
        if incumbent_x is not None and rel_gap(bound) <= mip_gap:
            return BnBResult(OPTIMAL, incumbent_x, incumbent_obj, rel_gap(bound), nodes, bound)
        if nodes >= node_limit:
            status = ITER_LIMIT if incumbent_x is not None else INFEASIBLE
            return BnBResult(status, incumbent_x, incumbent_obj, rel_gap(bound), nodes, bound)
        nodes += 1
        sol = solve_socp(with_fixed_variables(prob.relaxation, fixed), tol=tol)
        if sol.status != OPTIMAL:
            continue  # infeasible or diverging branch: prune
        if incumbent_x is not None and sol.obj >= incumbent_obj - 1e-12:
            continue
        frac = [(abs(float(sol.x[i]) - 0.5), i) for i in bins if i not in fixed]
        frac = [(d, i) for d, i in frac if abs(sol.x[i] - round(sol.x[i])) > _INT_TOL]
        if not frac:
            assign = {i: float(round(sol.x[i])) for i in bins}
            resolved = solve_socp(with_fixed_variables(prob.relaxation, assign), tol=tol)
            if resolved.status == OPTIMAL and resolved.obj < incumbent_obj:
                xi = resolved.x.copy()
                for i, v in assign.items():
                    xi[i] = v
                incumbent_x, incumbent_obj = xi, resolved.obj
            continue
        if incumbent_x is None or nodes % 8 == 1:
            try_heuristic(sol.x, fixed)
            if incumbent_x is not None and rel_gap(sol.obj) <= mip_gap:
                continue
        _, branch_var = min(frac, key=lambda t: (t[0], t[1]))
        for v in (0.0, 1.0):
            child = dict(fixed)
            child[branch_var] = v
            counter += 1
            heapq.heappush(heap, (sol.obj, counter, child))

    if incumbent_x is None:
        return BnBResult(INFEASIBLE, None, float("inf"), float("inf"), nodes, best_bound)
    return BnBResult(OPTIMAL, incumbent_x, incumbent_obj, 0.0, nodes, incumbent_obj)


def relax_and_repair(prob: MixedBinaryProgram, tol: float = 1e-8) -> BnBResult:
    """Fast path for storage/flexible-load subproblems.

    Solves the continuous relaxation, rounds the gates (netting simultaneous
    charge/discharge toward the larger power, trimming count budgets), then
    re-solves the continuous variables with gates fixed.  Falls back to full
    branch and bound when the repaired pattern is infeasible.
    """
    relax = solve_socp(prob.relaxation, tol=tol)
    if relax.status != OPTIMAL:
        return solve_mbp(prob, tol=tol)
    if not prob.binary_indices:
        return BnBResult(OPTIMAL, relax.x, relax.obj, 0.0, 1, relax.obj)
    assign = _round_assignment(relax.x, prob)
    fixed_sol = solve_socp(with_fixed_variables(prob.relaxation, assign), tol=tol)
    if fixed_sol.status != OPTIMAL:
        return solve_mbp(prob, tol=tol)
    x = fixed_sol.x.copy()
    for i, v in assign.items():
        x[i] = v
    gap = abs(fixed_sol.obj - relax.obj) / (1.0 + abs(fixed_sol.obj))
    return BnBResult(OPTIMAL, x, fixed_sol.obj, gap, 1, relax.obj)
