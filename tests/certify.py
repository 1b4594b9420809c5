"""Test-only certificates of solver answers.

``dual_sensitivity_probe`` checks an equality dual of a cone program by
central finite differences on its right-hand side.  ``subproblem_I_objective``
evaluates the coordinator's objective at any candidate point, so tests can
check the closed form against a search or a numerical solve.  ``spy_runs``
records the interior-point runs of cone solves, so tests can check which
programs reach the solver's rescue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from lemclear import socp
from lemclear.lmo import LmoState
from lemclear.model import AdmmConfig
from lemclear.socp import OPTIMAL, ConicProgram, ConicSolution, solve_socp_batch


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


def spy_runs(monkeypatch) -> list[tuple[int, bool, bool]]:
    """Record every interior-point run of ``socp`` from here on as (members,
    pivoting, warm): how many programs ran together, whether under partial
    pivoting (the rescue runs so), and whether any of them had a start."""
    runs = []
    loop = socp._ipm_loop

    def spy(members, *args, **kwargs):
        warm = any(s is not None for s in kwargs.get("starts") or ())
        runs.append((len(members), kwargs.get("pivoting", False), warm))
        return loop(members, *args, **kwargs)

    monkeypatch.setattr(socp, "_ipm_loop", spy)
    return runs
