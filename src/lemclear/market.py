"""Two-loop market clearing over a typed message bus.

The outer loop alternates prosumer schedule responses with coordinator
auxiliary/multiplier updates; the inner loop alternates network solves with
loss-consensus updates.  Messages crossing agent boundaries come from a
closed four-variant vocabulary, so privacy holds structurally: a device
parameter or internal state simply has no field to travel in.  An agent's
input type is its message: the coordinator builds one ``ProsumerInput`` per
prosumer per outer pass and one ``DsoInput`` per inner pass, sends its fields
and hands the same object to the agent's solve.

Convergence is declared when the power multipliers stop moving (infinity
norm at or below eps1, tested jointly over prosumers and hours) with the
loss multipliers settled the same way inside each outer pass (eps2).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import dso as dso_mod
from . import lmo as lmo_mod
from . import prosumer as pros_mod
from .dso import DsoInput, DsoOutput, NetworkStarts, solve_dso_subproblem
from .model import Scenario
# solve_subproblem_III stays importable here: perfbench/tracer.py wraps it
from .prosumer import (  # noqa: F401
    ProsumerInput,
    ProsumerSchedule,
    solve_subproblem_III,
    solve_subproblems,
)

__all__ = [
    "MESSAGE_SCHEMA",
    "MessageBus",
    "OuterRecord",
    "InnerRecord",
    "ConvergenceTrace",
    "ClearingResult",
    "PrivacyReport",
    "run_clearing",
    "operator_costs",
    "check_stop",
    "audit_privacy",
]

MESSAGE_SCHEMA: dict[str, frozenset[str]] = {
    "LmoToProsumer": frozenset({"lambda_lem", "p_tilde", "lambda_p"}),
    "ProsumerToLmo": frozenset({"p_net"}),
    "LmoToDso": frozenset({"p_net_node", "p_loss_tilde", "lambda_loss"}),
    "DsoToLmo": frozenset({"p_loss", "dlmp"}),
}

_ENVELOPE_KEYS = frozenset({"type", "sender", "recipient", "outer", "inner", "payload"})


class MessageBus:
    """In-process deterministic transport; serializes and logs every message
    when logging is enabled."""

    def __init__(self, log: bool = False):
        self.log_enabled = log
        self.log: list[dict] = []

    def send(
        self,
        sender: str,
        recipient: str,
        mtype: str,
        payload: dict,
        outer: int,
        inner: int = 0,
    ) -> None:
        if mtype not in MESSAGE_SCHEMA:
            raise ValueError(f"unknown message type {mtype}")
        if not self.log_enabled:
            return
        clean = {}
        for k, v in payload.items():
            if isinstance(v, np.ndarray):
                clean[k] = [float(x) for x in v]
            elif isinstance(v, dict):
                clean[k] = {str(kk): [float(x) for x in v[kk]] for kk in sorted(v)}
            elif v is None:
                clean[k] = None
            else:
                clean[k] = v
        self.log.append(
            {
                "type": mtype,
                "sender": sender,
                "recipient": recipient,
                "outer": outer,
                "inner": inner,
                "payload": clean,
            }
        )


@dataclass
class OuterRecord:
    k: int
    dual_step: float
    consensus_residual: float
    prosumer_objective: float
    lmo_objective: float
    millis: float


@dataclass
class InnerRecord:
    k: int
    k_inner: int
    loss_dual_step: float
    loss_residual: float
    dso_objective: float
    millis: float


@dataclass
class IterationIO:
    """The prosumers' net powers of one outer pass, which the digest hashes."""

    k: int
    p_net: dict[str, np.ndarray]


@dataclass
class ConvergenceTrace:
    outer: list[OuterRecord] = field(default_factory=list)
    inner: list[InnerRecord] = field(default_factory=list)
    messages: list[dict] = field(default_factory=list)
    replay: list[IterationIO] = field(default_factory=list)

    def digest(self) -> str:
        """Hash of every deterministic field (timings excluded)."""
        h = hashlib.sha256()
        for r in self.outer:
            h.update(
                f"O{r.k}|{r.dual_step!r}|{r.consensus_residual!r}|"
                f"{r.prosumer_objective!r}|{r.lmo_objective!r}\n".encode()
            )
        for r in self.inner:
            h.update(
                f"I{r.k}.{r.k_inner}|{r.loss_dual_step!r}|{r.loss_residual!r}|"
                f"{r.dso_objective!r}\n".encode()
            )
        for io in self.replay:
            for a in sorted(io.p_net):
                h.update(f"P{io.k}|{a}|".encode())
                h.update(np.asarray(io.p_net[a]).tobytes())
        return h.hexdigest()


@dataclass
class ClearingResult:
    status: str  # "converged" | "iter_limit"
    dlmp: dict[int, np.ndarray]
    schedules: dict[str, ProsumerSchedule]
    p_ug: np.ndarray
    p_loss: np.ndarray
    costs: dict
    trace: ConvergenceTrace
    dso: DsoOutput
    outer_iterations: int
    inner_iterations_per_outer: list[int]
    lambda_p: dict[str, np.ndarray] = field(default_factory=dict)
    lambda_loss: np.ndarray | None = None
    p_tilde: dict[str, np.ndarray] = field(default_factory=dict)
    p_loss_tilde: np.ndarray | None = None
    # seconds from the run_clearing call to its return; a timing, so not in
    # the trace's digest
    wall_seconds: float = 0.0


def operator_costs(scenario: Scenario, p_ug: np.ndarray, p_loss: np.ndarray) -> dict[str, float]:
    """The coordinator's wholesale bill and the network operator's loss bill."""
    return {
        "lmo": float(np.sum(p_ug * scenario.wem_price) * scenario.dt),
        "dso": float(np.sum(p_loss * scenario.loss_cost) * scenario.dt),
    }


def check_stop(residuals: np.ndarray, eps: float) -> bool:
    """Stopping test: infinity norm at or below eps (boundary included)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    res = np.asarray(residuals, dtype=float)
    if res.size == 0:
        return True
    return bool(np.max(np.abs(res)) <= eps)


@dataclass
class PrivacyReport:
    ok: bool
    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    messages_checked: int = 0


def audit_privacy(trace: ConvergenceTrace) -> PrivacyReport:
    """Scan every logged message against the closed field vocabulary."""
    issues: list[str] = []
    warnings: list[str] = []
    if not trace.messages:
        warnings.append("message log empty: audit passes vacuously")
    for i, msg in enumerate(trace.messages):
        extra_env = set(msg) - _ENVELOPE_KEYS
        if extra_env:
            issues.append(f"message {i}: unexpected envelope keys {sorted(extra_env)}")
        mtype = msg.get("type")
        allowed = MESSAGE_SCHEMA.get(mtype)
        if allowed is None:
            issues.append(f"message {i}: unknown type {mtype!r}")
            continue
        extra = set(msg.get("payload", {})) - allowed
        if extra:
            issues.append(
                f"message {i} ({mtype}): fields outside schema: {sorted(extra)}"
            )
    return PrivacyReport(
        ok=not issues,
        issues=issues,
        warnings=warnings,
        messages_checked=len(trace.messages),
    )


def run_clearing(
    scenario: Scenario,
    prosumer_solver: str = "exact",
    log_messages: bool = False,
) -> ClearingResult:
    """Clear the day-ahead market by the two-loop scheme.

    The first outer pass is a pure price response: prosumers see the
    wholesale series as their initial price signal and no auxiliary profile
    has been published yet.  Each outer pass solves all prosumers as one
    lockstep batch, each prosumer's search starting from its root
    relaxation of the previous pass, and each network pass starts every
    hour from its solution in the previous network pass.  Prosumers are
    solved in ``scenario.prosumers`` order and their results merged by
    sorted id, so the outcome does not depend on that order.  Every cone
    program is solved to the solver's default 1e-9
    (``socp.solve_socp_batch``), and exact prosumer branch and bound stops
    at its default 1e-6 relative gap.
    """
    t_start = time.perf_counter()
    cfg = scenario.admm
    net = scenario.network
    # the network program's structure, shared by every inner pass (called
    # through the module, where a tracer can wrap it)
    bf = dso_mod.assemble_branch_flow(net)
    T = scenario.horizon
    dt = scenario.dt
    ids = sorted(p.id for p in scenario.prosumers)
    pros_by_id = {p.id: p for p in scenario.prosumers}
    # each prosumer's program as far as it stays from pass to pass, posed at
    # every outer pass's input (called through the module, where a tracer
    # can wrap it)
    assembled = {a: pros_mod.assemble_prosumer(pros_by_id[a], dt, T) for a in ids}
    psi = {p.id: p.bus_id for p in scenario.prosumers}
    state = lmo_mod.LmoState(
        lambda_p={a: np.zeros(T) for a in ids},
        lambda_loss=np.zeros(T),
        p_tilde=None,
        p_loss_tilde=np.zeros(T),
        psi=psi,
    )
    # the price signal of the next outer pass; after the last, the prices of
    # the last network pass
    prices: dict[str, np.ndarray] = {a: scenario.wem_price.copy() for a in ids}
    background_total = scenario.total_background()

    bus = MessageBus(log=log_messages)
    trace = ConvergenceTrace()

    status = "iter_limit"
    schedules: dict[str, ProsumerSchedule] = {}
    p_net: dict[str, np.ndarray] = {}
    dso_out: DsoOutput | None = None
    sp1 = None
    inner_counts: list[int] = []
    k_done = 0
    # each prosumer's last root relaxation, the start of its next search,
    # and each network hour's last solution, the start of its next solve;
    # solver state of this clearing only, never sent or traced
    warm: dict = {}
    net_warm = NetworkStarts()

    for k in range(1, cfg.max_outer + 1):
        t_outer = time.perf_counter()
        inputs = {
            a: ProsumerInput(
                lambda_lem=prices[a],
                p_tilde=None if state.p_tilde is None else state.p_tilde[a],
                lambda_p=state.lambda_p[a],
            )
            for a in ids
        }
        for a in ids:
            bus.send("lmo", a, "LmoToProsumer", vars(inputs[a]), outer=k)
        solved = solve_subproblems(
            [(assembled[p.id], inputs[p.id]) for p in scenario.prosumers], cfg,
            mode=prosumer_solver, starts=warm,
        )
        schedules = dict(sorted(zip((p.id for p in scenario.prosumers), solved)))
        p_net = {a: schedules[a].p_net for a in ids}
        for a in ids:
            bus.send(a, "lmo", "ProsumerToLmo", {"p_net": p_net[a]}, outer=k)
        trace.replay.append(IterationIO(k, {a: p_net[a].copy() for a in ids}))

        p_node = lmo_mod.aggregate_to_nodes(psi, p_net, scenario)

        n_inner = 0
        for kp in range(1, cfg.max_inner + 1):
            t_inner = time.perf_counter()
            n_inner = kp
            dso_in = DsoInput(p_node, state.p_loss_tilde, state.lambda_loss)
            bus.send("lmo", "dso", "LmoToDso", vars(dso_in), outer=k, inner=kp)
            dso_out = solve_dso_subproblem(
                net,
                dso_in,
                loss_cost=scenario.loss_cost,
                dt=dt,
                rho_prime=cfg.rho_prime,
                bf=bf,
                starts=net_warm,
            )
            bus.send(
                "dso", "lmo", "DsoToLmo", {"p_loss": dso_out.p_loss, "dlmp": dso_out.dlmp},
                outer=k, inner=kp,
            )
            sp1 = lmo_mod.solve_subproblem_I(
                state,
                scenario.wem_price,
                dt,
                p_net,
                dso_out.p_loss,
                cfg,
                background_total=background_total,
            )
            state.p_loss_tilde = sp1.p_loss_tilde
            new_ll = lmo_mod.update_loss_dual(
                state, sp1.p_loss_tilde, dso_out.p_loss, cfg
            )
            inner_step = np.abs(new_ll - state.lambda_loss)
            state.lambda_loss = new_ll
            trace.inner.append(
                InnerRecord(
                    k=k,
                    k_inner=kp,
                    loss_dual_step=float(np.max(inner_step)),
                    loss_residual=float(
                        np.max(np.abs(sp1.p_loss_tilde - dso_out.p_loss))
                    ),
                    dso_objective=float(np.sum(dso_out.objective)),
                    millis=(time.perf_counter() - t_inner) * 1e3,
                )
            )
            if check_stop(inner_step, cfg.eps2):
                break
        inner_counts.append(n_inner)

        prices = lmo_mod.map_dlmp_to_prosumers(state.psi, dso_out.dlmp)
        new_lp = lmo_mod.update_power_dual(state, sp1.p_tilde, p_net, cfg)
        outer_step = np.concatenate(
            [np.abs(new_lp[a] - state.lambda_p[a]) for a in ids]
        ) if ids else np.zeros(1)
        consensus = (
            float(np.max(np.concatenate([np.abs(sp1.p_tilde[a] - p_net[a]) for a in ids])))
            if ids
            else 0.0
        )
        state.lambda_p = new_lp
        # publish auxiliaries consistent with the multipliers the prosumers
        # will hold next pass (the coordinator subproblem is closed-form, so
        # its solution under the updated multiplier is immediate); an
        # inconsistent pair would transiently double the wholesale component
        # of the price signal the prosumers respond to
        state.p_tilde = {
            a: lmo_mod.auxiliary_power(p_net[a], new_lp[a], scenario.wem_price, dt, cfg.rho)
            for a in ids
        }
        trace.outer.append(
            OuterRecord(
                k=k,
                dual_step=float(np.max(outer_step)),
                consensus_residual=consensus,
                prosumer_objective=float(sum(schedules[a].objective for a in ids)),
                lmo_objective=sp1.objective,
                millis=(time.perf_counter() - t_outer) * 1e3,
            )
        )
        k_done = k
        if check_stop(outer_step, cfg.eps1):
            status = "converged"
            break

    trace.messages = bus.log
    assert dso_out is not None and sp1 is not None
    p_ug = sp1.p_ug
    pros_costs = {
        a: float(np.sum(schedules[a].p_net * prices[a]) * dt)
        + schedules[a].cost_devices
        for a in ids
    }
    costs = {
        **operator_costs(scenario, p_ug, dso_out.p_loss),
        "prosumers": pros_costs,
        "prosumers_avg": (sum(pros_costs.values()) / len(pros_costs)) if pros_costs else 0.0,
    }
    return ClearingResult(
        status=status,
        dlmp=dso_out.dlmp,
        schedules=schedules,
        p_ug=p_ug,
        p_loss=dso_out.p_loss,
        costs=costs,
        trace=trace,
        dso=dso_out,
        outer_iterations=k_done,
        inner_iterations_per_outer=inner_counts,
        lambda_p=state.lambda_p,
        lambda_loss=state.lambda_loss,
        p_tilde=state.p_tilde,
        p_loss_tilde=state.p_loss_tilde,
        wall_seconds=time.perf_counter() - t_start,
    )
