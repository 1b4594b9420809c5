"""Prosumer agent: device scheduling as a mixed-binary cone program.

The schedule couples curtailable PV, gated storage (charge/discharge
exclusivity, state-of-charge recursion with efficiencies, departure energy
floors) and flexible-load deviations (per-hour bounds, a budget on modified
hours, a daily retained-energy floor).  The only externally visible output is
the hourly net consumption; everything else stays inside the agent.

Flexible load follows the signed-deviation convention: effective hourly load
is baseline minus the deviation, so positive values curtail.

A prosumer's program is assembled once (``assemble_prosumer``: rows, cone,
binaries, repair hints and device costs, which depend only on the prosumer,
the interval length and the horizon) and posed at each outer pass's input
(``pose_subproblem``: the energy price and the consensus terms); a clearing
keeps the assembly for all its passes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
from .socp import ConicProgram, NonNeg, SolveFailed, SparseRows, Start

__all__ = [
    "ProsumerInput",
    "ProsumerProgram",
    "ProsumerSchedule",
    "StorageSchedule",
    "FlSchedule",
    "assemble_prosumer",
    "pose_subproblem",
    "build_subproblem",
    "solve_subproblem_III",
    "solve_subproblems",
    "soc_step",
    "validate_schedule",
]


@dataclass(frozen=True)
class ProsumerInput:
    """The coordinator's message to a prosumer for one outer pass, and the
    input of the prosumer's solve.

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
    p_pv: list[np.ndarray]
    q_pv: list[np.ndarray]
    storages: list[StorageSchedule]
    fls: list[FlSchedule]
    cost_energy: float
    cost_devices: float
    objective: float


@dataclass
class ProsumerProgram:
    mbp: MixedBinaryProgram
    pros: Prosumer
    inp: ProsumerInput | None  # None as assembled, before a pass's input is posed
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


def soc_step(soc_prev: float, p_ch: float, p_dch: float, device: StorageDevice, dt: float) -> float:
    """One step of the state-of-charge recursion."""
    return soc_prev + (device.eta_ch * p_ch - p_dch / device.eta_dch) * dt


def assemble_prosumer(pros: Prosumer, dt: float, horizon: int) -> ProsumerProgram:
    """Encode what the prosumer's scheduling problem keeps from pass to pass.

    That is everything that depends only on the prosumer, dt and the
    horizon: the rows, the cone, the binaries and their repair hints, and
    the device costs, which are the relaxation's whole objective here;
    ``pose_subproblem`` adds a pass's prices and consensus terms.  A
    clearing assembles each prosumer once.  Statically infeasible device
    data (an unreachable departure floor, an unattainable energy floor) is
    rejected here rather than surfacing as a solver failure.
    """
    T = horizon
    windows = [len(d.hours()) for d in pros.storages]

    # --- variables: the schedule itself ------------------------------------
    n = 0

    def take(k: int) -> int:
        nonlocal n
        n += k
        return n - k

    p_net = take(T)
    st_soc = [take(w) for w in windows]
    n_signed = n  # the variables above may take either sign
    pv_off = [take(T) for _ in pros.pvs]
    st_pch, st_pdch, st_xch, st_xdch = [], [], [], []
    for w in windows:
        st_pch.append(take(w))
        st_pdch.append(take(w))
        st_xch.append(take(w))
        st_xdch.append(take(w))
    fl_pos, fl_neg, fl_y = [], [], []
    for _ in pros.fls:
        fl_pos.append(take(T))
        fl_neg.append(take(T))
        fl_y.append(take(T))

    # --- equality rows: the hourly net-power identity ---------------------
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

    # --- inequality rows a'x <= rhs, one NonNeg block ---------------------
    # it opens with -x_j <= 0 for every variable after n_signed, then the PV caps
    le = SparseRows()
    for j in range(n_signed, n):
        le.add([(j, -1.0)], 0.0)
    for u, unit in enumerate(pros.pvs):
        for t in range(T):
            le.add([(pv_off[u] + t, 1.0)], unit.cap(t))

    # --- one block per device: its rows, costs, binaries and repair hints --
    # a storage's SoC recursion goes to eq, everything else of it to le
    c = np.zeros(n)
    binaries: list[int] = []
    gates: dict[int, tuple[int, ...]] = {}
    pairs: list[tuple[int, int]] = []
    groups: list[tuple[tuple[int, ...], int]] = []
    for d, w, soc, pch, pdch, xch, xdch in zip(
        pros.storages, windows, st_soc, st_pch, st_pdch, st_xch, st_xdch
    ):
        if d.e0 + d.eta_ch * d.p_ch_max * w * dt < d.e_trip - 1e-9:
            raise ValueError(
                f"prosumer {pros.id}: storage {d.name} cannot reach its departure floor"
            )
        for k in range(w):
            prev = [(soc + k - 1, -1.0)] if k > 0 else []
            eq.add(
                [(soc + k, 1.0)] + prev
                + [(pch + k, -d.eta_ch * dt), (pdch + k, dt / d.eta_dch)],
                d.e0 if k == 0 else 0.0,
            )
            le.add([(pch + k, 1.0), (xch + k, -d.p_ch_max)], 0.0)
            le.add([(pdch + k, 1.0), (xdch + k, -d.p_dch_max)], 0.0)
            le.add([(xch + k, 1.0), (xdch + k, 1.0)], 1.0)
            le.add([(soc + k, -1.0)], -d.soc_min)
            le.add([(soc + k, 1.0)], d.soc_max)
            binaries += [xch + k, xdch + k]
            gates[xch + k] = (pch + k,)
            gates[xdch + k] = (pdch + k,)
            pairs.append((xch + k, xdch + k))
        le.add([(soc + w - 1, -1.0)], -d.e_trip)
        c[pch : pch + w] += d.throughput_cost * dt
        c[pdch : pdch + w] += d.throughput_cost * dt
    for fl, pos, neg, y in zip(pros.fls, fl_pos, fl_neg, fl_y):
        attainable = float(np.sum((pros.baseline_load + fl.p_fl_max) * dt))
        if fl.e_min > attainable + 1e-9:
            raise ValueError(f"prosumer {pros.id}: flexible-load energy floor unattainable")
        for t in range(T):
            le.add([(y + t, 1.0)], 1.0)
            le.add([(pos + t, 1.0), (neg + t, 1.0), (y + t, -float(fl.p_fl_max[t]))], 0.0)
            gates[y + t] = (pos + t, neg + t)
        ys = tuple(range(y, y + T))
        le.add([(yt, 1.0) for yt in ys], fl.t_max)
        le.add(
            [(pos + t, dt) for t in range(T)] + [(neg + t, -dt) for t in range(T)],
            float(np.sum(pros.baseline_load * dt)) - fl.e_min,
        )
        c[pos : pos + T] += fl.discomfort_cost * dt
        c[neg : neg + T] += fl.discomfort_cost * dt
        binaries += ys
        groups.append((ys, fl.t_max))

    A, b = eq.matrix(n)
    G, h = le.matrix(n)
    prog = ConicProgram(
        c=c,
        A=A,
        b=b,
        G=G,
        h=h,
        cones=(NonNeg(len(h)),) if len(h) else (),
    )

    mbp = MixedBinaryProgram(
        relaxation=prog,
        binary_indices=tuple(binaries),
        hints=RepairHints(gates=gates, exclusive_pairs=tuple(pairs), count_groups=tuple(groups)),
    )
    return ProsumerProgram(
        mbp=mbp,
        pros=pros,
        inp=None,
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
    )


def pose_subproblem(pp: ProsumerProgram, inp: ProsumerInput, cfg: AdmmConfig) -> ProsumerProgram:
    """The assembled prosumer ``pp`` (see ``assemble_prosumer``) at one pass's input.

    Only the relaxation's objective changes: the energy price on p_net and,
    once an auxiliary profile is published, the consensus terms
    -lambda_p'p_net + rho/2 ||p_net - p_tilde||^2, whose constant part is c0.
    """
    T = pp.horizon
    if len(inp.lambda_lem) != T or len(inp.lambda_p) != T:
        raise ValueError("input signals must cover the horizon")
    if inp.p_tilde is not None and len(inp.p_tilde) != T:
        raise ValueError("auxiliary profile must cover the horizon")
    base = pp.mbp.relaxation
    net = slice(pp.p_net, pp.p_net + T)
    c = base.c.copy()
    q = np.zeros(base.n_vars)
    c0 = 0.0
    c[net] = np.asarray(inp.lambda_lem, dtype=float) * pp.dt
    if inp.p_tilde is not None:
        lam_p = np.asarray(inp.lambda_p, dtype=float)
        tilde = np.asarray(inp.p_tilde, dtype=float)
        c[net] += -lam_p - cfg.rho * tilde
        q[net] = cfg.rho
        for lp, pt in zip(lam_p.tolist(), tilde.tolist()):
            c0 += lp * pt + 0.5 * cfg.rho * pt**2
    relaxation = replace(base, c=c, q=q, c0=c0)
    return replace(pp, mbp=replace(pp.mbp, relaxation=relaxation), inp=inp)


def build_subproblem(
    pros: Prosumer,
    inp: ProsumerInput,
    cfg: AdmmConfig,
    dt: float,
    horizon: int,
) -> ProsumerProgram:
    """Encode the prosumer's scheduling problem at one input as a mixed-binary
    program: ``assemble_prosumer`` posed by ``pose_subproblem``."""
    return pose_subproblem(assemble_prosumer(pros, dt, horizon), inp, cfg)


def _extract(pp: ProsumerProgram, x: np.ndarray, obj: float) -> ProsumerSchedule:
    pros, T, dt = pp.pros, pp.horizon, pp.dt
    p_net = x[pp.p_net : pp.p_net + T].copy()
    p_pv = [x[o : o + T].copy() for o in pp.pv]
    q_pv = [
        np.array([reactive_from_pf(max(float(v), 0.0), unit.pf) for v in arr])
        for arr, unit in zip(p_pv, pros.pvs)
    ]
    storages = []
    for di, d in enumerate(pros.storages):
        t0, t1 = d.window
        p_ch, p_dch, x_ch, x_dch = (np.zeros(T) for _ in range(4))
        soc = np.full(T, d.e0)  # before arrival the battery holds e0, after departure its last
        for arr, o in ((p_ch, pp.st_pch[di]), (p_dch, pp.st_pdch[di]), (x_ch, pp.st_xch[di]),
                       (x_dch, pp.st_xdch[di]), (soc, pp.st_soc[di])):
            arr[t0 : t1 + 1] = x[o : o + t1 - t0 + 1]
        soc[t1 + 1 :] = soc[t1]
        storages.append(StorageSchedule(d.name, p_ch, p_dch, x_ch, x_dch, soc))
    fls = []
    for li in range(len(pros.fls)):
        p_fl = x[pp.fl_pos[li] : pp.fl_pos[li] + T] - x[pp.fl_neg[li] : pp.fl_neg[li] + T]
        fls.append(FlSchedule(p_fl, x[pp.fl_y[li] : pp.fl_y[li] + T].copy()))
    cost_energy = float(np.sum(p_net * pp.inp.lambda_lem) * dt)
    cost_dev = 0.0
    for d, s in zip(pros.storages, storages):
        cost_dev += d.throughput_cost * float(np.sum(s.p_ch + s.p_dch)) * dt
    for fl, f in zip(pros.fls, fls):
        cost_dev += fl.discomfort_cost * float(np.sum(np.abs(f.p_fl))) * dt
    return ProsumerSchedule(
        prosumer_id=pros.id,
        p_net=p_net,
        p_pv=p_pv,
        q_pv=q_pv,
        storages=storages,
        fls=fls,
        cost_energy=cost_energy,
        cost_devices=cost_dev,
        objective=obj,
    )


_SOLVER_MODES = ("exact", "relax_repair")


def solve_subproblem_III(
    pros: Prosumer,
    inp: ProsumerInput,
    cfg: AdmmConfig,
    dt: float,
    horizon: int,
    mode: str = "exact",
) -> ProsumerSchedule:
    """Solve the prosumer's scheduling problem and reconstruct the schedule.

    ``mode`` selects exact branch and bound (``"exact"``) or the
    relax-and-repair fast path (``"relax_repair"``); any other value raises
    ValueError.  A solve without a usable schedule raises :class:`SolveFailed`
    naming the prosumer.  This is ``solve_subproblems`` on one prosumer.
    """
    return solve_subproblems([(assemble_prosumer(pros, dt, horizon), inp)], cfg, mode)[0]


def solve_subproblems(
    problems: list[tuple[ProsumerProgram, ProsumerInput]],
    cfg: AdmmConfig,
    mode: str = "exact",
    starts: dict[str, Start] | None = None,
) -> list[ProsumerSchedule]:
    """Solve several prosumers' scheduling problems, one schedule per problem.

    Each problem is an assembled prosumer (``assemble_prosumer``) and the
    input it is posed at (``pose_subproblem``).  The prosumers' searches
    run together (``miqp.solve_searches``), so each round of cone solves is
    one batch; every schedule is exactly the one ``solve_subproblems``
    gives for that prosumer alone from the same start.  ``mode`` is as for
    ``solve_subproblem_III``; the first prosumer in ``problems`` without a
    usable schedule raises :class:`SolveFailed`.

    ``starts``, if given, maps prosumer ids to the root relaxation their
    search starts from, and receives each prosumer's new root relaxation:
    an earlier solve of the same prosumers (a previous outer pass, which
    only changes prices and the proximal target) warm-starts the next.
    """
    if mode not in _SOLVER_MODES:
        raise ValueError(
            f"unknown prosumer solver {mode!r}; expected one of {list(_SOLVER_MODES)}"
        )
    search = mbp_search if mode == "exact" else repair_search
    held = {} if starts is None else starts
    pps = [pose_subproblem(pp, inp, cfg) for pp, inp in problems]
    results = solve_searches([search(pp.mbp, start=held.get(pp.pros.id)) for pp in pps])
    for pp, res in zip(pps, results):
        if res.x_incumbent is None:
            raise SolveFailed(f"prosumer {pp.pros.id}", res.status)
        held[pp.pros.id] = res.root
    return [
        _extract(pp, res.x_incumbent, res.obj_incumbent) for pp, res in zip(pps, results)
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
