"""Acceptance baselines: centralized joint clearing and uncoordinated
selfish scheduling.

The centralized solve stacks every prosumer's constraint block and every
hour's network block into one cone program whose objective is the wholesale
bill plus loss cost plus device costs (market payments are internal
transfers and do not appear).  The network hours are posed by
``dso.hour_programs`` and read back by ``dso.read_hours``, exactly as the
network operator poses and reads its own; only the wholesale cost on the
grid import is added here.  The joint program is solved on a unit
objective scale: its costs (prices times the interval, about 1e3 in
currency per per-unit hour) are divided by their largest magnitude, which
puts them at the scale of its O(1) rows, and the answer is read back in
currency.  The selfish mode lets each prosumer respond to the wholesale
series alone, then evaluates, without optimizing, what the network does
under those injections; limit violations are reported as a congestion
diagnostic rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import lmo as lmo_mod
from . import prosumer as pros_mod
from .dso import (
    DsoInfeasible,
    DsoInput,
    DsoOutput,
    assemble_branch_flow,
    hour_programs,
    limit_violations,
    read_hours,
    relaxed_limits,
    solve_dso_subproblem,
)
from .market import ClearingResult, operator_costs
from .miqp import restore_fixed, with_fixed_variables
from .model import Scenario
from .prosumer import ProsumerInput, ProsumerSchedule
from .socp import INFEASIBLE, OPTIMAL, ConicProgram, SolveFailed, solve_socp

__all__ = ["OracleResult", "solve_centralized", "solve_selfish"]


@dataclass
class OracleResult:
    mode: str  # "centralized" | "selfish"
    objective: float
    schedules: dict[str, ProsumerSchedule]
    costs: dict
    dlmp: dict[int, np.ndarray] | None = None
    p_ug: np.ndarray | None = None
    p_loss: np.ndarray | None = None
    violations: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _stack(
    programs: list[ConicProgram], coupling: list[tuple[int, int, int, int, float]]
) -> tuple[ConicProgram, list[int], list[int]]:
    """Block-diagonal concatenation plus coupling entries of A.

    Each coupling entry (i, row, j, col, value) places value at equality row
    ``row`` of program i and variable ``col`` of program j.  Returns the
    program and the variable and equality-row offsets of each block.
    """
    var_off = np.cumsum([0] + [p.n_vars for p in programs])
    row_off = np.cumsum([0] + [p.n_eq for p in programs])
    blocks = sp.block_diag([p.A for p in programs], format="coo")
    i, row, j, col, val = np.array(coupling, dtype=float).reshape(-1, 5).T
    i, row, j, col = (v.astype(int) for v in (i, row, j, col))
    A = sp.csr_matrix(
        (
            np.concatenate([blocks.data, val]),
            (
                np.concatenate([blocks.row, row_off[i] + row]),
                np.concatenate([blocks.col, var_off[j] + col]),
            ),
        ),
        shape=blocks.shape,
    )
    prog = ConicProgram(
        c=np.concatenate([p.c for p in programs]),
        A=A,
        b=np.concatenate([p.b for p in programs]),
        G=sp.block_diag([p.G for p in programs], format="csr"),
        h=np.concatenate([p.h for p in programs]),
        cones=tuple(cb for p in programs for cb in p.cones),
        q=np.concatenate([p.q for p in programs]),
        c0=sum(p.c0 for p in programs),
    )
    return prog, list(var_off[:-1]), list(row_off[:-1])


def solve_centralized(
    scenario: Scenario,
    binaries: str | ClearingResult = "relaxed",
) -> OracleResult:
    """One monolithic cone program over all hours, prosumers and the feeder.

    ``binaries`` is either "relaxed" (gates live in [0,1]) or a distributed
    clearing result whose gate pattern is pinned before solving.  Prices come
    from the nodal balance duals and are anchored at the wholesale price at
    the substation.  The posed program's c, q and c0 are divided by
    omega = max(1, |c|_inf, |q|_inf) before the solve, and its duals
    multiplied by omega after it, so prices, schedules and the objective
    (evaluated on the posed program) do not depend on the currency unit.
    """
    net = scenario.network
    T = scenario.horizon
    dt = scenario.dt
    ids = sorted(p.id for p in scenario.prosumers)
    pros_by_id = {p.id: p for p in scenario.prosumers}

    zero_inp = ProsumerInput(lambda_lem=np.zeros(T), p_tilde=None, lambda_p=np.zeros(T))
    pros_programs = {
        a: pros_mod.build_subproblem(pros_by_id[a], zero_inp, scenario.admm, dt, T)
        for a in ids
    }
    # the network hours at the background load, with the wholesale bill on
    # the grid import
    bf = assemble_branch_flow(net)
    background = {n: scenario.background_at(n) for n in net.bus_ids()}
    hours = hour_programs(
        bf,
        DsoInput(background, p_loss_tilde=np.zeros(T), lambda_loss=np.zeros(T)),
        scenario.loss_cost * dt,
        0.0,
    )
    for t, prog in enumerate(hours):
        prog.c[bf.p_ug] = float(scenario.wem_price[t]) * dt

    # couple prosumer net powers into the nodal balances of their bus; the
    # reactive rows follow the active rows at the bus's tan(phi)
    coupling = []
    for i, a in enumerate(ids):
        p_row = bf.balance_rows[pros_by_id[a].bus_id]
        for t in range(T):
            col = pros_programs[a].p_net + t
            coupling.append((len(ids) + t, p_row, i, col, -1.0))
            coupling.append((len(ids) + t, p_row + len(net.buses), i, col, -bf.tan_phi[p_row]))
    blocks = [pros_programs[a].mbp.relaxation for a in ids] + hours
    prog, var_off, row_off = _stack(blocks, coupling)
    pros_off = {a: var_off[i] for i, a in enumerate(ids)}
    hour_voff = var_off[len(ids):]
    hour_roff = row_off[len(ids):]

    binary_fix: dict[int, float] = {}
    if isinstance(binaries, ClearingResult):
        for a in ids:
            pp, off = pros_programs[a], pros_off[a]
            sched = binaries.schedules[a]
            for di, d in enumerate(pros_by_id[a].storages):
                for k, t in enumerate(d.hours()):
                    binary_fix[off + pp.st_xch[di] + k] = float(round(sched.storages[di].x_ch[t]))
                    binary_fix[off + pp.st_xdch[di] + k] = float(round(sched.storages[di].x_dch[t]))
            for li in range(len(pros_by_id[a].fls)):
                for t in range(T):
                    binary_fix[off + pp.fl_y[li] + t] = float(round(sched.fls[li].y_fl[t]))
    elif binaries != "relaxed":
        raise ValueError("binaries must be 'relaxed' or a ClearingResult")

    # on a unit objective scale the cold point's z starts near the duals
    posed = with_fixed_variables(prog, binary_fix)
    omega = float(np.abs(np.concatenate([posed.c, posed.q])).max(initial=1.0))
    sol = solve_socp(replace(posed, c=posed.c / omega, q=posed.q / omega, c0=posed.c0 / omega))
    sol = replace(sol, y=sol.y * omega, z=sol.z * omega, obj=posed.objective(sol.x))
    if sol.status != OPTIMAL:
        # only an infeasible ending carries a certificate, so only it names a cause
        detail = "likely binding family: device energy floors vs network limits"
        raise SolveFailed("centralized program", sol.status,
                          detail if sol.status == INFEASIBLE else "")
    x = restore_fixed(sol.x, binary_fix)
    X = np.array([x[off : off + bf.prog.n_vars] for off in hour_voff])
    Y = np.array([sol.y[off : off + bf.prog.n_eq] for off in hour_roff])
    network = read_hours(bf, hours, X, Y, dt)
    dlmp = {n: network.dlmp[n] for n in net.bus_ids()}
    p_ug = X[:, bf.p_ug]
    p_loss = network.p_loss

    schedules: dict[str, ProsumerSchedule] = {}
    pros_costs: dict[str, float] = {}
    for a in ids:
        pp = pros_programs[a]
        xs = x[pros_off[a] : pros_off[a] + pp.mbp.relaxation.n_vars]
        sched = pros_mod._extract(pp, xs, 0.0)
        payment = float(np.sum(sched.p_net * dlmp[pros_by_id[a].bus_id]) * dt)
        sched.cost_energy = payment
        sched.objective = payment + sched.cost_devices
        schedules[a] = sched
        pros_costs[a] = sched.objective

    device_cost = sum(schedules[a].cost_devices for a in ids)
    return OracleResult(
        mode="centralized",
        objective=sol.obj,
        schedules=schedules,
        costs={
            **operator_costs(scenario, p_ug, p_loss),
            "prosumers": pros_costs,
            "devices_total": device_cost,
        },
        dlmp=dlmp,
        p_ug=p_ug,
        p_loss=p_loss,
        meta={"binaries": "relaxed" if not binary_fix else "fixed"},
    )


def solve_selfish(
    scenario: Scenario,
    prosumer_solver: str = "exact",
) -> OracleResult:
    """Uncoordinated baseline: prosumers face the wholesale series directly.

    The network is then evaluated at the resulting injections.  If limits
    cannot be met the evaluation re-runs with relaxed limits and the binding
    violations are listed (selfish behavior may overload the feeder; that is
    the point of the comparison, not an error).
    """
    net = scenario.network
    T = scenario.horizon
    dt = scenario.dt
    ids = sorted(p.id for p in scenario.prosumers)
    pros_by_id = {p.id: p for p in scenario.prosumers}
    problems = [
        (pros_mod.assemble_prosumer(pros_by_id[a], dt, T),
         ProsumerInput(lambda_lem=scenario.wem_price.copy(), p_tilde=None, lambda_p=np.zeros(T)))
        for a in ids
    ]
    solved = pros_mod.solve_subproblems(problems, scenario.admm, mode=prosumer_solver)
    schedules: dict[str, ProsumerSchedule] = dict(zip(ids, solved))

    p_node = lmo_mod.aggregate_to_nodes(
        {a: pros_by_id[a].bus_id for a in ids}, {a: schedules[a].p_net for a in ids}, scenario
    )
    inp_net = DsoInput(p_node, p_loss_tilde=np.zeros(T), lambda_loss=np.zeros(T))
    violations: list[str] = []
    try:
        dso_out: DsoOutput = solve_dso_subproblem(net, inp_net, scenario.loss_cost, dt)
    except DsoInfeasible as exc:
        # one entry per (hour, limit); the exception's diagnosis names the
        # first infeasible hour's limits again, so it stands in only when
        # the scan finds none
        dso_out = solve_dso_subproblem(relaxed_limits(net), inp_net, scenario.loss_cost, dt)
        scan = limit_violations(net, dso_out)
        violations = [f"{msg} at hour {t}" for t, msg in scan] or [str(exc)]

    total_net = scenario.total_background().copy()
    for a in ids:
        total_net = total_net + schedules[a].p_net
    p_ug = total_net + dso_out.p_loss
    bills = operator_costs(scenario, p_ug, dso_out.p_loss)
    pros_costs = {
        a: schedules[a].cost_energy + schedules[a].cost_devices for a in ids
    }
    objective = bills["lmo"] + bills["dso"] + sum(s.cost_devices for s in schedules.values())
    return OracleResult(
        mode="selfish",
        objective=objective,
        schedules=schedules,
        costs={**bills, "prosumers": pros_costs},
        p_ug=p_ug,
        p_loss=dso_out.p_loss,
        violations=violations,
        meta={
            "tariff": "wholesale passthrough (modeling assumption)",
            "tightness_max": float(dso_out.tightness.max()),
        },
    )
