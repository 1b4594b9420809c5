"""Prosumer agent: device scheduling as a mixed-binary cone program.

The schedule couples curtailable PV, gated storage (charge/discharge
exclusivity, state-of-charge recursion with efficiencies, departure energy
floors) and flexible-load deviations (per-hour bounds, a budget on modified
hours, a daily retained-energy floor).  The only externally visible output is
the hourly net consumption; everything else stays inside the agent.

Flexible load follows the signed-deviation convention: effective hourly load
is baseline minus the deviation, so positive values curtail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# solve_mbp and relax_and_repair stay importable here: perfbench/tracer.py wraps them
from .miqp import (  # noqa: F401
    MixedBinaryProgram,
    RepairHints,
    mbp_search,
    relax_and_repair,
    repair_search,
    solve_mbp,
    solve_searches,
)
from .model import AdmmConfig, Prosumer, StorageDevice, reactive_from_pf
from .socp import OPTIMAL, ConicProgram, NonNeg, SolveFailed, SparseRows

__all__ = [
    "ProsumerInput",
    "ProsumerProgram",
    "ProsumerSchedule",
    "StorageSchedule",
    "FlSchedule",
    "build_subproblem",
    "solve_subproblem_III",
    "solve_subproblems",
    "soc_step",
    "validate_schedule",
]


@dataclass(frozen=True)
class ProsumerInput:
    """Signals received from the coordinator for one solve.

    ``p_tilde`` is None on the very first pass, before any auxiliary profile
    has been published; the consensus terms are then absent from the
    objective and the solve is a pure price response.
    """

    lambda_lem: np.ndarray
    p_tilde: np.ndarray | None
    lambda_p: np.ndarray


@dataclass
class StorageSchedule:
    name: str
    p_ch: np.ndarray
    p_dch: np.ndarray
    x_ch: np.ndarray
    x_dch: np.ndarray
    soc: np.ndarray


@dataclass
class FlSchedule:
    p_fl: np.ndarray
    y_fl: np.ndarray


@dataclass
class ProsumerSchedule:
    prosumer_id: str
    p_net: np.ndarray
    p_g: np.ndarray
    p_l: np.ndarray
    p_pv: list[np.ndarray]
    q_pv: list[np.ndarray]
    storages: list[StorageSchedule]
    fls: list[FlSchedule]
    cost_energy: float
    cost_devices: float
    objective: float
    solver_gap: float = 0.0


@dataclass
class ProsumerProgram:
    mbp: MixedBinaryProgram
    pros: Prosumer
    inp: ProsumerInput
    dt: float
    horizon: int
    # variable offsets
    p_net: int
    pv: list[int]                       # start of each PV's p_pv block (T wide)
    st_pch: list[int]
    st_pdch: list[int]
    st_xch: list[int]
    st_xdch: list[int]
    st_soc: list[int]
    fl_pos: list[int]
    fl_neg: list[int]
    fl_y: list[int]
    n_binaries: int = 0


def soc_step(soc_prev: float, p_ch: float, p_dch: float, device: StorageDevice, dt: float) -> float:
    """One step of the state-of-charge recursion."""
    return soc_prev + (device.eta_ch * p_ch - p_dch / device.eta_dch) * dt


def build_subproblem(
    pros: Prosumer,
    inp: ProsumerInput,
    cfg: AdmmConfig,
    dt: float,
    horizon: int,
) -> ProsumerProgram:
    """Encode the prosumer's scheduling problem as a mixed-binary program.

    Statically infeasible device data (an unreachable departure floor, an
    unattainable energy floor) is rejected here rather than surfacing as a
    solver failure.
    """
    T = horizon
    if len(inp.lambda_lem) != T or len(inp.lambda_p) != T:
        raise ValueError("input signals must cover the horizon")
    if inp.p_tilde is not None and len(inp.p_tilde) != T:
        raise ValueError("auxiliary profile must cover the horizon")

    for d in pros.storages:
        w = len(list(d.hours()))
        if d.e0 + d.eta_ch * d.p_ch_max * w * dt < d.e_trip - 1e-9:
            raise ValueError(
                f"prosumer {pros.id}: storage {d.name} cannot reach its departure floor"
            )
    for fl in pros.fls:
        attainable = float(np.sum((pros.baseline_load + fl.p_fl_max) * dt))
        if fl.e_min > attainable + 1e-9:
            raise ValueError(f"prosumer {pros.id}: flexible-load energy floor unattainable")

    # --- variables: the schedule itself ------------------------------------
    n = 0

    def take(k: int) -> int:
        nonlocal n
        n += k
        return n - k

    p_net = take(T)
    st_soc = [take(len(list(d.hours()))) for d in pros.storages]
    n_signed = n  # the variables above may take either sign
    pv_off = [take(T) for _ in pros.pvs]
    st_pch, st_pdch, st_xch, st_xdch = [], [], [], []
    for d in pros.storages:
        w = len(list(d.hours()))
        st_pch.append(take(w))
        st_pdch.append(take(w))
        st_xch.append(take(w))
        st_xdch.append(take(w))
    fl_pos, fl_neg, fl_y = [], [], []
    for _ in pros.fls:
        fl_pos.append(take(T))
        fl_neg.append(take(T))
        fl_y.append(take(T))

    # --- equality rows: net-power identity, state-of-charge recursion -----
    eq = SparseRows()
    for t in range(T):
        entries = [(p_net + t, 1.0)] + [(o + t, 1.0) for o in pv_off]
        for di, d in enumerate(pros.storages):
            if d.window[0] <= t <= d.window[1]:
                k = t - d.window[0]
                entries += [(st_pch[di] + k, -1.0), (st_pdch[di] + k, 1.0)]
        for li in range(len(pros.fls)):
            entries += [(fl_pos[li] + t, 1.0), (fl_neg[li] + t, -1.0)]
        eq.add(entries, pros.baseline_load[t])
    for di, d in enumerate(pros.storages):
        for k in range(len(list(d.hours()))):
            prev = [(st_soc[di] + k - 1, -1.0)] if k > 0 else []
            eq.add(
                [(st_soc[di] + k, 1.0)] + prev
                + [(st_pch[di] + k, -d.eta_ch * dt), (st_pdch[di] + k, dt / d.eta_dch)],
                d.e0 if k == 0 else 0.0,
            )

    # --- inequality rows a'x <= rhs, one NonNeg block ---------------------
    # it opens with -x_j <= 0 for every variable after n_signed (see below)
    le = SparseRows()
    for u, unit in enumerate(pros.pvs):
        for t in range(T):
            le.add([(pv_off[u] + t, 1.0)], unit.cap(t))
    for di, d in enumerate(pros.storages):
        w = len(list(d.hours()))
        for k in range(w):
            soc, xc, xd = st_soc[di] + k, st_xch[di] + k, st_xdch[di] + k
            le.add([(st_pch[di] + k, 1.0), (xc, -d.p_ch_max)], 0.0)
            le.add([(st_pdch[di] + k, 1.0), (xd, -d.p_dch_max)], 0.0)
            le.add([(xc, 1.0), (xd, 1.0)], 1.0)
            le.add([(soc, -1.0)], -d.soc_min)
            le.add([(soc, 1.0)], d.soc_max)
        le.add([(st_soc[di] + w - 1, -1.0)], -d.e_trip)
    for li, fl in enumerate(pros.fls):
        for t in range(T):
            y = fl_y[li] + t
            le.add([(y, 1.0)], 1.0)
            le.add([(fl_pos[li] + t, 1.0), (fl_neg[li] + t, 1.0), (y, -float(fl.p_fl_max[t]))], 0.0)
        le.add([(fl_y[li] + t, 1.0) for t in range(T)], fl.t_max)
        le.add(
            [(fl_pos[li] + t, dt) for t in range(T)] + [(fl_neg[li] + t, -dt) for t in range(T)],
            float(np.sum(pros.baseline_load * dt)) - fl.e_min,
        )

    # --- objective --------------------------------------------------------
    c = np.zeros(n)
    qdiag = np.zeros(n)
    c0 = 0.0
    for t in range(T):
        c[p_net + t] = float(inp.lambda_lem[t]) * dt
    if inp.p_tilde is not None:
        for t in range(T):
            c[p_net + t] += -float(inp.lambda_p[t]) - cfg.rho * float(inp.p_tilde[t])
            qdiag[p_net + t] = cfg.rho
            c0 += float(inp.lambda_p[t]) * float(inp.p_tilde[t]) + 0.5 * cfg.rho * float(
                inp.p_tilde[t]
            ) ** 2
    for di, d in enumerate(pros.storages):
        w = len(list(d.hours()))
        for k in range(w):
            c[st_pch[di] + k] += d.throughput_cost * dt
            c[st_pdch[di] + k] += d.throughput_cost * dt
    for li, fl in enumerate(pros.fls):
        for t in range(T):
            c[fl_pos[li] + t] += fl.discomfort_cost * dt
            c[fl_neg[li] + t] += fl.discomfort_cost * dt

    A, b = eq.matrix(n)
    G_dev, h_dev = le.matrix(n)
    k = n - n_signed
    G = sp.csr_matrix(
        (
            np.concatenate([np.full(k, -1.0), G_dev.data]),
            np.concatenate([np.arange(n_signed, n, dtype=G_dev.indices.dtype), G_dev.indices]),
            np.concatenate([np.arange(k, dtype=G_dev.indptr.dtype), G_dev.indptr + k]),
        ),
        shape=(k + G_dev.shape[0], n),
    )
    h = np.concatenate([np.zeros(k), h_dev])
    prog = ConicProgram(
        c=c,
        A=A,
        b=b,
        G=G,
        h=h,
        cones=(NonNeg(len(h)),) if len(h) else (),
        q=qdiag,
        c0=c0,
    )

    binaries: list[int] = []
    gates: dict[int, tuple[int, ...]] = {}
    pairs: list[tuple[int, int]] = []
    groups: list[tuple[tuple[int, ...], int]] = []
    for di, d in enumerate(pros.storages):
        w = len(list(d.hours()))
        for k in range(w):
            xc, xd = st_xch[di] + k, st_xdch[di] + k
            binaries += [xc, xd]
            gates[xc] = (st_pch[di] + k,)
            gates[xd] = (st_pdch[di] + k,)
            pairs.append((xc, xd))
    for li in range(len(pros.fls)):
        ys = tuple(fl_y[li] + t for t in range(T))
        binaries += list(ys)
        for t in range(T):
            gates[fl_y[li] + t] = (fl_pos[li] + t, fl_neg[li] + t)
        groups.append((ys, pros.fls[li].t_max))

    mbp = MixedBinaryProgram(
        relaxation=prog,
        binary_indices=tuple(binaries),
        hints=RepairHints(gates=gates, exclusive_pairs=tuple(pairs), count_groups=tuple(groups)),
    )
    return ProsumerProgram(
        mbp=mbp,
        pros=pros,
        inp=inp,
        dt=dt,
        horizon=T,
        p_net=p_net,
        pv=pv_off,
        st_pch=st_pch,
        st_pdch=st_pdch,
        st_xch=st_xch,
        st_xdch=st_xdch,
        st_soc=st_soc,
        fl_pos=fl_pos,
        fl_neg=fl_neg,
        fl_y=fl_y,
        n_binaries=len(binaries),
    )


def _extract(pp: ProsumerProgram, x: np.ndarray, obj: float, gap: float) -> ProsumerSchedule:
    pros, T, dt = pp.pros, pp.horizon, pp.dt
    p_net = x[pp.p_net : pp.p_net + T].copy()
    p_pv = [x[o : o + T].copy() for o in pp.pv]
    q_pv = [
        np.array([reactive_from_pf(max(float(v), 0.0), unit.pf) for v in arr])
        for arr, unit in zip(p_pv, pros.pvs)
    ]
    storages = []
    for di, d in enumerate(pros.storages):
        hours = list(d.hours())
        w = len(hours)
        p_ch = np.zeros(T)
        p_dch = np.zeros(T)
        x_ch = np.zeros(T)
        x_dch = np.zeros(T)
        soc = np.full(T, d.e0)
        for k, t in enumerate(hours):
            p_ch[t] = x[pp.st_pch[di] + k]
            p_dch[t] = x[pp.st_pdch[di] + k]
            x_ch[t] = x[pp.st_xch[di] + k]
            x_dch[t] = x[pp.st_xdch[di] + k]
            soc[t] = x[pp.st_soc[di] + k]
        for t in range(hours[-1] + 1, T):
            soc[t] = soc[hours[-1]]
        storages.append(StorageSchedule(d.name, p_ch, p_dch, x_ch, x_dch, soc))
    fls = []
    for li in range(len(pros.fls)):
        p_fl = x[pp.fl_pos[li] : pp.fl_pos[li] + T] - x[pp.fl_neg[li] : pp.fl_neg[li] + T]
        y = x[pp.fl_y[li] : pp.fl_y[li] + T].copy()
        fls.append(FlSchedule(p_fl.copy(), y))
    p_g = sum(p_pv, np.zeros(T)) + sum((s.p_dch for s in storages), np.zeros(T))
    fl_total = sum((f.p_fl for f in fls), np.zeros(T))
    p_l = pros.baseline_load - fl_total + sum((s.p_ch for s in storages), np.zeros(T))
    cost_energy = float(np.sum(p_net * pp.inp.lambda_lem) * dt)
    cost_dev = 0.0
    for d, s in zip(pros.storages, storages):
        cost_dev += d.throughput_cost * float(np.sum(s.p_ch + s.p_dch)) * dt
    for fl, f in zip(pros.fls, fls):
        cost_dev += fl.discomfort_cost * float(np.sum(np.abs(f.p_fl))) * dt
    return ProsumerSchedule(
        prosumer_id=pros.id,
        p_net=p_net,
        p_g=p_g,
        p_l=p_l,
        p_pv=p_pv,
        q_pv=q_pv,
        storages=storages,
        fls=fls,
        cost_energy=cost_energy,
        cost_devices=cost_dev,
        objective=obj,
        solver_gap=gap,
    )


_SOLVER_MODES = {"exact": "exact", "relax_repair": "relax_repair", "relax-repair": "relax_repair"}


def solve_subproblem_III(
    pros: Prosumer,
    inp: ProsumerInput,
    cfg: AdmmConfig,
    dt: float,
    horizon: int,
    mode: str = "exact",
    tol: float = 1e-9,
) -> ProsumerSchedule:
    """Solve the prosumer's scheduling problem and reconstruct the schedule.

    ``mode`` selects exact branch and bound (``"exact"``) or the
    relax-and-repair fast path (``"relax_repair"``, or ``"relax-repair"`` as
    the command line spells it); any other value raises ValueError.  A solve
    without a usable schedule raises :class:`SolveFailed` naming the prosumer.
    This is ``solve_subproblems`` on one prosumer.
    """
    return solve_subproblems([(pros, inp)], cfg, dt, horizon, mode, tol)[0]


def solve_subproblems(
    problems: list[tuple[Prosumer, ProsumerInput]],
    cfg: AdmmConfig,
    dt: float,
    horizon: int,
    mode: str = "exact",
    tol: float = 1e-9,
) -> list[ProsumerSchedule]:
    """Solve several prosumers' scheduling problems, one schedule per problem.

    The prosumers' searches run together (``miqp.solve_searches``), so each
    round of cone solves is one batch; every schedule is exactly the one
    ``solve_subproblem_III`` gives for that prosumer alone.  ``mode`` is as
    there; the first prosumer in ``problems`` without a usable schedule
    raises :class:`SolveFailed`.
    """
    if mode not in _SOLVER_MODES:
        raise ValueError(
            f"unknown prosumer solver {mode!r}; expected one of {sorted(_SOLVER_MODES)}"
        )
    search = mbp_search if _SOLVER_MODES[mode] == "exact" else repair_search
    pps = [build_subproblem(pros, inp, cfg, dt, horizon) for pros, inp in problems]
    results = solve_searches([search(pp.mbp) for pp in pps], tol=tol)
    for pp, res in zip(pps, results):
        if res.x_incumbent is None or res.status not in (OPTIMAL, "iter_limit"):
            raise SolveFailed(f"prosumer {pp.pros.id}", res.status)
    return [
        _extract(pp, res.x_incumbent, res.obj_incumbent, res.gap) for pp, res in zip(pps, results)
    ]


def validate_schedule(
    pros: Prosumer,
    sched: ProsumerSchedule,
    dt: float,
    tol: float = 1e-6,
) -> list[str]:
    """Re-check every device constraint by direct arithmetic.

    Returns an empty list iff the schedule is feasible to the tolerance; each
    violation names the constraint, device and hour.
    """
    T = len(sched.p_net)
    bad: list[str] = []
    fl_total = sum((f.p_fl for f in sched.fls), np.zeros(T))
    p_l = pros.baseline_load - fl_total + sum((s.p_ch for s in sched.storages), np.zeros(T))
    p_g = sum(sched.p_pv, np.zeros(T)) + sum((s.p_dch for s in sched.storages), np.zeros(T))
    for t in range(T):
        if abs(sched.p_net[t] - (p_l[t] - p_g[t])) > max(tol, 1e-9):
            bad.append(f"net-power identity violated at hour {t}")
    for u, (unit, arr) in enumerate(zip(pros.pvs, sched.p_pv)):
        for t in range(T):
            if arr[t] < -tol or arr[t] > unit.cap(t) + tol:
                bad.append(f"pv {u} output outside cap at hour {t}")
    for d, s in zip(pros.storages, sched.storages):
        t0, t1 = d.window
        for t in range(T):
            inside = t0 <= t <= t1
            if not inside and (abs(s.p_ch[t]) > tol or abs(s.p_dch[t]) > tol):
                bad.append(f"storage {d.name} active outside window at hour {t}")
            if inside:
                if s.x_ch[t] * s.x_dch[t] > tol:
                    bad.append(f"storage {d.name} charges and discharges at hour {t}")
                if s.p_ch[t] < -tol or s.p_ch[t] > d.p_ch_max * round(s.x_ch[t]) + tol:
                    bad.append(f"storage {d.name} charge power ungated at hour {t}")
                if s.p_dch[t] < -tol or s.p_dch[t] > d.p_dch_max * round(s.x_dch[t]) + tol:
                    bad.append(f"storage {d.name} discharge power ungated at hour {t}")
                prev = d.e0 if t == t0 else s.soc[t - 1]
                if abs(s.soc[t] - soc_step(prev, s.p_ch[t], s.p_dch[t], d, dt)) > tol:
                    bad.append(f"storage {d.name} SoC recursion broken at hour {t}")
                if s.soc[t] < d.soc_min - tol or s.soc[t] > d.soc_max + tol:
                    bad.append(f"storage {d.name} SoC outside bounds at hour {t}")
        if s.soc[t1] < d.e_trip - tol:
            bad.append(f"storage {d.name} departure floor missed (soc={s.soc[t1]:.6f})")
    for li, (fl, f) in enumerate(zip(pros.fls, sched.fls)):
        used = 0
        for t in range(T):
            yv = round(f.y_fl[t])
            if abs(f.p_fl[t]) > float(fl.p_fl_max[t]) * yv + tol:
                bad.append(f"fl {li} deviation outside gate at hour {t}")
            if abs(f.p_fl[t]) > tol and yv == 0:
                bad.append(f"fl {li} active without utilization flag at hour {t}")
            used += yv
        if used > fl.t_max:
            bad.append(f"fl {li} modified {used} hours, budget {fl.t_max}")
        retained = float(np.sum((pros.baseline_load - f.p_fl) * dt))
        if retained < fl.e_min - tol:
            bad.append(f"fl {li} retained energy {retained:.6f} below floor {fl.e_min:.6f}")
    return bad
