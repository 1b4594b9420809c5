"""Local market operator: closed-form coordination subproblem, multiplier
ascent and the prosumer/bus aggregation maps.

The coordinator holds auxiliary copies of every prosumer's net power and of
the network loss.  Its subproblem minimizes the wholesale bill of the implied
grid exchange plus the consensus penalties; eliminating the grid exchange via
the market balance leaves an unconstrained convex quadratic whose stationary
point is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdmmConfig, Scenario

__all__ = [
    "LmoState",
    "SubproblemIResult",
    "auxiliary_power",
    "solve_subproblem_I",
    "aggregate_to_nodes",
    "map_dlmp_to_prosumers",
    "update_power_dual",
    "update_loss_dual",
]


@dataclass
class LmoState:
    """Coordinator-side iterate: multipliers, auxiliary copies and the
    prosumer-to-bus incidence (psi)."""

    lambda_p: dict[str, np.ndarray]
    lambda_loss: np.ndarray
    p_tilde: dict[str, np.ndarray] | None
    p_loss_tilde: np.ndarray
    psi: dict[str, int]


@dataclass
class SubproblemIResult:
    p_tilde: dict[str, np.ndarray]
    p_loss_tilde: np.ndarray
    p_ug: np.ndarray
    objective: float


def auxiliary_power(
    p_net: np.ndarray, lambda_p: np.ndarray, wem_price: np.ndarray, dt: float, rho: float
) -> np.ndarray:
    """The coordinator's closed-form auxiliary copy of a net power profile,
    ``p_net - (wem*dt + lambda_p) / rho``, for a prosumer's net consumption
    (weight rho) and for the network loss (weight rho') alike."""
    return p_net - (np.asarray(wem_price, dtype=float) * dt + lambda_p) / rho


def solve_subproblem_I(
    state: LmoState,
    wem_price: np.ndarray,
    dt: float,
    p_net_star: dict[str, np.ndarray],
    p_loss_star: np.ndarray,
    cfg: AdmmConfig,
    background_total: np.ndarray | None = None,
) -> SubproblemIResult:
    """Closed-form coordinator update.

    With the grid exchange eliminated through the market balance, the
    stationarity conditions give, per prosumer and hour, the auxiliaries of
    ``auxiliary_power``

        p_tilde = p_star - (wem*dt + lambda_p) / rho
        p_loss_tilde = p_loss_star - (wem*dt + lambda_loss) / rho'

    and the grid exchange is reconstructed from the balance (including any
    non-participating background load the coordinator supplies).
    """
    if cfg.rho <= 0 or cfg.rho_prime <= 0:
        raise ValueError("penalty weights must be positive")
    p_tilde = {
        a: auxiliary_power(p_net_star[a], state.lambda_p[a], wem_price, dt, cfg.rho)
        for a in sorted(p_net_star)
    }
    p_loss_tilde = auxiliary_power(p_loss_star, state.lambda_loss, wem_price, dt, cfg.rho_prime)
    p_ug = p_loss_tilde.copy()
    for a in sorted(p_tilde):
        p_ug = p_ug + p_tilde[a]
    if background_total is not None:
        p_ug = p_ug + background_total
    obj = _objective(
        state, wem_price, dt, p_net_star, p_loss_star, cfg, p_tilde, p_loss_tilde, p_ug
    )
    return SubproblemIResult(p_tilde, p_loss_tilde, p_ug, obj)


def _objective(state, wem_price, dt, p_star, pl_star, cfg, p_tilde, pl_tilde, p_ug):
    w = np.asarray(wem_price, dtype=float) * dt
    val = float(w @ p_ug)
    for a in sorted(p_tilde):
        d = p_tilde[a] - p_star[a]
        val += float(state.lambda_p[a] @ d) + 0.5 * cfg.rho * float(d @ d)
    dl = pl_tilde - pl_star
    val += float(state.lambda_loss @ dl) + 0.5 * cfg.rho_prime * float(dl @ dl)
    return val


def aggregate_to_nodes(
    psi: dict[str, int],
    p_net: dict[str, np.ndarray],
    scenario: Scenario,
) -> dict[int, np.ndarray]:
    """Sum co-located prosumers onto their buses; buses without prosumers
    carry only the scenario's non-participating background load."""
    out = {
        bid: scenario.background_at(bid).copy()
        for bid in scenario.network.bus_ids()
    }
    for a in sorted(p_net):
        if a not in psi:
            raise KeyError(f"prosumer {a} has no bus mapping")
        out[psi[a]] = out[psi[a]] + p_net[a]
    return out


def map_dlmp_to_prosumers(
    psi: dict[str, int],
    dlmp: dict[int, np.ndarray],
) -> dict[str, np.ndarray]:
    """Project bus prices onto the prosumers located there, unchanged."""
    out: dict[str, np.ndarray] = {}
    for a, n in psi.items():
        if n not in dlmp:
            raise KeyError(f"no price available for bus {n}")
        out[a] = dlmp[n].copy()
    return out


def update_power_dual(
    state: LmoState,
    p_tilde: dict[str, np.ndarray],
    p_net: dict[str, np.ndarray],
    cfg: AdmmConfig,
) -> dict[str, np.ndarray]:
    """Multiplier ascent on the net-power consensus residual."""
    return {
        a: state.lambda_p[a] + cfg.rho * (p_tilde[a] - p_net[a])
        for a in sorted(state.lambda_p)
    }


def update_loss_dual(
    state: LmoState,
    p_loss_tilde: np.ndarray,
    p_loss: np.ndarray,
    cfg: AdmmConfig,
) -> np.ndarray:
    """Multiplier ascent on the loss consensus residual."""
    return state.lambda_loss + cfg.rho_prime * (p_loss_tilde - p_loss)
