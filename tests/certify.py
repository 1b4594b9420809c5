"""Test-only certificates of solver answers.

``check_kkt`` recomputes an optimal cone solution's residuals and cone
membership from the program itself, independently of the solver's
internals.  ``dual_sensitivity_probe`` checks an equality dual of a cone
program by central finite differences on its right-hand side.
``subproblem_I_objective`` evaluates the coordinator's objective at any
candidate point, so tests can check the closed form against a search or a
numerical solve.  ``spy_runs`` records the interior-point runs of cone
solves, so tests can check which programs reach the solver's rescue,
``spy_batch_order`` the order in which a clearing hands its prosumers to
the solver, and ``uncertify_hour`` makes a network hour end without a
certificate.  ``distflow_sweep`` solves a radial feeder's load flow, so
tests can check the network operator's voltages and losses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from lemclear import dso, market, socp
from lemclear.lmo import LmoState
from lemclear.model import AdmmConfig, NetworkModel
from lemclear.socp import (
    ITER_LIMIT, OPTIMAL, ConicProgram, ConicSolution, _Cones, _norm, _rowdot, solve_socp_batch,
)


def membership_violation(cones: _Cones, u: np.ndarray) -> float:
    """How far u sits outside the cone of the layout ``cones`` (0 when inside)."""
    worst = 0.0
    if len(cones.nonneg_idx):
        worst = max(worst, float(-np.min(u[cones.nonneg_idx])))
    for g in cones.soc_groups:
        blk = u[g]
        tail = np.sqrt(_rowdot(blk[:, 1:], blk[:, 1:]))
        worst = max(worst, float(np.max(tail - blk[:, 0])))
    return worst


def check_kkt(prog: ConicProgram, sol: ConicSolution) -> dict[str, float]:
    """Recompute optimality residuals independently of the solver internals.

    Returns the infinity norm of the primal residuals Ax - b and Gx + s - h,
    that of the dual residual, the complementarity gap s'z and the worst
    cone-membership violation of s and z.
    """
    if sol.status != OPTIMAL:
        raise ValueError("check_kkt expects an optimal solution")
    cones = _Cones(prog.cones)
    x, s, z = sol.x, sol.s, sol.z
    r_d = prog.q * x + prog.c - prog.A.T @ sol.y + prog.G.T @ z
    return {
        "primal": _norm(prog.A @ x - prog.b, prog.G @ x + s - prog.h),
        "dual": _norm(r_d),
        "gap": abs(float(s @ z)),
        "cone": max(membership_violation(cones, s), membership_violation(cones, z)),
    }


@dataclass
class ProbeResult:
    estimate: float
    dual: float
    conclusive: bool


def dual_sensitivity_probe(
    prog: ConicProgram,
    sol: ConicSolution,
    eq_index: int,
    delta: float = 1e-5,
    tol: float = 1e-9,
) -> ProbeResult:
    """Certify an equality dual by central finite differences on b[eq_index].

    Re-solves the program at b +/- delta; a failed re-solve marks the probe
    inconclusive rather than raising.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sol.status != OPTIMAL:
        raise ValueError("probe requires an optimal base solution")
    shifted = []
    for sign in (+1.0, -1.0):
        b2 = prog.b.copy()
        b2[eq_index] += sign * delta
        shifted.append(replace(prog, b=b2))
    up, down = solve_socp_batch(shifted, tol=tol)
    if up.status != OPTIMAL or down.status != OPTIMAL:
        return ProbeResult(float("nan"), float(sol.y[eq_index]), False)
    est = (up.obj - down.obj) / (2.0 * delta)
    return ProbeResult(est, float(sol.y[eq_index]), True)


def subproblem_I_objective(
    state: LmoState,
    wem_price: np.ndarray,
    dt: float,
    p_net_star: dict[str, np.ndarray],
    p_loss_star: np.ndarray,
    cfg: AdmmConfig,
    p_tilde: dict[str, np.ndarray],
    p_loss_tilde: np.ndarray,
) -> float:
    """The coordinator's objective at the candidate (p_tilde, p_loss_tilde):
    the wholesale bill of the grid exchange they imply plus the augmented
    Lagrangian terms of both consensus constraints."""
    p_ug = p_loss_tilde.copy()
    for a in sorted(p_tilde):
        p_ug = p_ug + p_tilde[a]
    val = float((np.asarray(wem_price, dtype=float) * dt) @ p_ug)
    for a in sorted(p_tilde):
        d = p_tilde[a] - p_net_star[a]
        val += float(state.lambda_p[a] @ d) + 0.5 * cfg.rho * float(d @ d)
    dl = p_loss_tilde - p_loss_star
    val += float(state.lambda_loss @ dl) + 0.5 * cfg.rho_prime * float(dl @ dl)
    return val


def spy_runs(monkeypatch, statuses: list | None = None) -> list[tuple[int, bool, bool]]:
    """Record every interior-point run of ``socp`` from here on as (members,
    pivoting, warm): how many programs ran together, whether under partial
    pivoting (the rescue runs so), and whether any of them had a start.
    ``statuses``, if given, receives the statuses each run returns, one list
    per run in the same order."""
    runs = []
    loop = socp._ipm_loop

    def spy(members, *args, **kwargs):
        warm = any(s is not None for s in kwargs.get("starts") or ())
        runs.append((len(members), kwargs.get("pivoting", False), warm))
        sols = loop(members, *args, **kwargs)
        if statuses is not None:
            statuses.append([sol.status for sol in sols])
        return sols

    monkeypatch.setattr(socp, "_ipm_loop", spy)
    return runs


def spy_batch_order(monkeypatch) -> list[list[str]]:
    """Record, from here on, the prosumer ids of every batch of prosumer
    programs a clearing solves, in the order the batch holds them."""
    orders = []
    solve = market.solve_subproblems

    def spy(items, *args, **kwargs):
        orders.append([pp.pros.id for pp, _ in items])
        return solve(items, *args, **kwargs)

    monkeypatch.setattr(market, "solve_subproblems", spy)
    return orders


def uncertify_hour(monkeypatch, hour: int) -> None:
    """From here on, every batch the network operator solves ends its member
    ``hour`` ITER_LIMIT, an ending without an answer or a certificate;
    batches with fewer members are left as they are."""
    batch = dso.solve_socp_batch

    def spy(progs, *args, **kwargs):
        sols = batch(progs, *args, **kwargs)
        if hour < len(sols):
            sols[hour] = replace(sols[hour], status=ITER_LIMIT)
        return sols

    monkeypatch.setattr(dso, "solve_socp_batch", spy)


def distflow_sweep(
    net: NetworkModel, p: dict[int, np.ndarray], q: dict[int, np.ndarray], tol: float = 1e-13
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The DistFlow load flow of the radial feeder ``net`` by backward/forward
    sweeps (Baran & Wu, IEEE Trans. Power Delivery 4(2), 1989).

    ``p`` and ``q`` map a bus to its net active and reactive consumption per
    hour (absent buses consume nothing); the PCC holds v = 1.  Each sweep
    sums the flow into every bus from its children and its line's losses,
    then drops the squared voltage down each line, and updates the squared
    currents l = (P^2 + Q^2) / v_parent, until they move by at most ``tol``.
    Returns the squared voltage per bus and the squared current per line
    index.  The feeder is oriented by this function's own parent map.
    """
    pcc = next(b.id for b in net.buses if b.is_pcc)
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in net.buses}
    for li, ln in enumerate(net.lines):
        adj[ln.from_bus].append((ln.to_bus, li))
        adj[ln.to_bus].append((ln.from_bus, li))
    parent: dict[int, tuple[int, int]] = {}  # bus -> (parent bus, line index)
    order, stack = [], [pcc]
    while stack:  # depth-first preorder: every bus after its parent
        bus = stack.pop()
        order.append(bus)
        for nb, li in adj[bus]:
            if nb != pcc and nb not in parent:
                parent[nb] = (bus, li)
                stack.append(nb)
    T = len(next(iter(p.values())))
    zero = np.zeros(T)
    v = {b: np.ones(T) for b in order}
    l = {li: zero for li in range(len(net.lines))}
    for _ in range(1000):
        P = {b: np.array(p.get(b, zero), dtype=float) for b in order}
        Q = {b: np.array(q.get(b, zero), dtype=float) for b in order}
        for b in reversed(order[1:]):  # children before parents
            a, li = parent[b]
            P[b] += net.lines[li].r * l[li]
            Q[b] += net.lines[li].x * l[li]
            P[a] += P[b]
            Q[a] += Q[b]
        for b in order[1:]:
            a, li = parent[b]
            r, x = net.lines[li].r, net.lines[li].x
            v[b] = v[a] - 2.0 * (r * P[b] + x * Q[b]) + (r * r + x * x) * l[li]
        new = {li: (P[b] ** 2 + Q[b] ** 2) / v[a] for b, (a, li) in parent.items()}
        moved = max(float(np.max(np.abs(new[li] - l[li]))) for li in new)
        l = new
        if moved <= tol:
            return v, l
    raise RuntimeError(f"DistFlow sweep did not settle: squared currents still move by {moved:.3e}")
