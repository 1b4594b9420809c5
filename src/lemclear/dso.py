"""DSO agent: hourly branch-flow cone programs, losses and nodal prices.

The feeder is oriented parent-to-child from the PCC and each hour becomes an
independent cone program in line flows (p, q), squared currents (l) and
squared voltages (v).  The quadratic flow-current coupling is relaxed to a
rotated cone written as SecondOrder(4) blocks; line capacity is a
SecondOrder(3) block.  The dual of a bus's active-power balance, divided by
the interval length, is that bus's energy price.  The operator receives net
active consumption per bus only; each bus's reactive consumption is its
active consumption times tan(arccos(pf)) at the bus's static power factor.

All hours share one constraint matrix, built once by ``assemble_branch_flow``.
Hours are posed by ``hour_programs`` (injections and loss terms) and read by
``read_hours`` (losses, prices, voltages, flows), both for the network
operator, which solves its hours as one lockstep batch, and for the
centralized oracle, which stacks them into one joint program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import FeederIndex, Line, NetworkModel, validate_network
# solve_socp stays importable here: perfbench/tracer.py wraps dso.solve_socp
from .socp import (  # noqa: F401
    INFEASIBLE,
    OPTIMAL,
    ConicProgram,
    NonNeg,
    SecondOrder,
    SolveFailed,
    SparseRows,
    Start,
    solve_socp,
    solve_socp_batch,
)

__all__ = [
    "orient_feeder",
    "BranchFlowProgram",
    "DsoInput",
    "DsoOutput",
    "DsoInfeasible",
    "NetworkStarts",
    "assemble_branch_flow",
    "hour_programs",
    "read_hours",
    "solve_dso_subproblem",
    "check_tightness",
    "TightnessReport",
    "relaxed_limits",
    "limit_violations",
]


class DsoInfeasible(RuntimeError):
    def __init__(self, hour: int, detail: str):
        super().__init__(f"network program infeasible at hour {hour}: {detail}")
        self.hour = hour
        self.detail = detail


def orient_feeder(net: NetworkModel) -> FeederIndex:
    """net's lines oriented away from the PCC, as ``validate_network`` walks them."""
    rep = validate_network(net)
    if not rep.ok:
        raise ValueError("network failed validation: " + "; ".join(rep.failures()))
    return rep.feeder


@dataclass
class BranchFlowProgram:
    """The hourly cone program's structure plus the variable map needed to read it back.

    The variables are exactly the physical unknowns: flows p and q, squared
    currents l and squared voltages v per line and bus, the grid import and
    export pair and the total loss.  ``tan_phi`` holds, per balance row, the
    reactive consumption of a unit of the bus's active consumption.
    """

    prog: ConicProgram
    feeder: FeederIndex
    off_p: int
    off_q: int
    off_v: int
    off_l: int
    p_ug: int
    q_ug: int
    p_loss: int
    balance_rows: dict[int, int]
    tan_phi: np.ndarray


@dataclass(frozen=True)
class DsoInput:
    """The coordinator's message to the network operator for one pass.

    Only active net consumption crosses the agent boundary; the operator
    derives reactive consumption from its buses' power factors.
    """

    p_net_node: dict[int, np.ndarray]
    p_loss_tilde: np.ndarray
    lambda_loss: np.ndarray


@dataclass
class NetworkStarts:
    """Solver state the network operator keeps between the passes of one
    clearing: each hour's last solution, which the hour's next solve starts
    from, and the solver's patterns of the hour programs
    (``socp.solve_socp_batch``), derived once for the clearing.  It stays
    with the operator: it is never sent or traced."""

    hours: list[Start] | None = None
    patterns: dict = field(default_factory=dict)


@dataclass
class DsoOutput:
    p_loss: np.ndarray                     # per hour, recomputed as sum r*l
    dlmp: dict[int, np.ndarray]            # per bus, currency per pu-hour
    v: dict[int, np.ndarray]               # squared voltages
    flows: dict[int, dict[str, np.ndarray]]   # line idx -> {p,q,l}
    tightness: np.ndarray                  # (lines, T) cone residual v*l-(p^2+q^2)
    objective: np.ndarray                  # per-hour subproblem objective
    lines_oriented: tuple[tuple[int, int], ...]


def assemble_branch_flow(net: NetworkModel) -> BranchFlowProgram:
    """Build the hourly network program's structure, shared by every hour.

    Injections and the loss terms are zero; ``hour_programs`` writes each
    hour's into a copy.
    """
    fd = orient_feeder(net)
    F = len(net.lines)
    N = len(net.buses)

    off_p, off_q, off_v = 0, F, 2 * F
    off_l = 2 * F + N
    p_ug = off_l + F
    q_ug = p_ug + 1
    p_loss = q_ug + 1
    n = p_loss + 1
    vpos = {bus_id: off_v + i for i, bus_id in enumerate(fd.bus_ids)}

    eq = SparseRows()
    # active balance per bus (rows 0..N-1, bus order: PCC first), then
    # reactive; a line's loss term is r*l on the active side and x*l on the
    # reactive side (k picks r or x out of fd.oriented)
    for off, grid, k in ((off_p, p_ug, 2), (off_q, q_ug, 3)):
        for bid in fd.bus_ids:
            if bid == fd.pcc:
                entries = [(grid, 1.0)]
            else:
                li = fd.in_line[bid]
                entries = [(off + li, 1.0), (off_l + li, -fd.oriented[li][k])]
            entries += [(off + lo, -1.0) for lo in fd.out_lines[bid]]
            eq.add(entries, 0.0)
    balance_rows = {bid: i for i, bid in enumerate(fd.bus_ids)}
    # voltage drop per line
    for li, (fb, tb, r, x, _) in enumerate(fd.oriented):
        eq.add(
            [(vpos[fb], 1.0), (vpos[tb], -1.0), (off_p + li, -2.0 * r),
             (off_q + li, -2.0 * x), (off_l + li, r * r + x * x)],
            0.0,
        )
    # loss definition and reference voltage at the PCC
    eq.add([(off_l + li, -r) for li, (_, _, r, _, _) in enumerate(fd.oriented)] + [(p_loss, 1.0)], 0.0)
    eq.add([(vpos[fd.pcc], 1.0)], 1.0)

    # cone rows G x + s = h: voltage bounds at the other buses, then per
    # line the rotated cone (v + l, 2p, 2q, v - l), i.e. v*l >= p^2 + q^2,
    # and the capacity cone (s_max, p, q); the rotated cone implies l >= 0
    cone = SparseRows()
    for bid in fd.bus_ids:
        if bid != fd.pcc:
            bus = net.bus(bid)
            cone.add([(vpos[bid], -1.0)], -bus.vmin**2)
            cone.add([(vpos[bid], 1.0)], bus.vmax**2)
    for li, (fb, _, _, _, smax) in enumerate(fd.oriented):
        v, p, q, l = vpos[fb], off_p + li, off_q + li, off_l + li
        cone.add([(v, -1.0), (l, -1.0)], 0.0)
        cone.add([(p, -2.0)], 0.0)
        cone.add([(q, -2.0)], 0.0)
        cone.add([(v, -1.0), (l, 1.0)], 0.0)
        cone.add([], smax)
        cone.add([(p, -1.0)], 0.0)
        cone.add([(q, -1.0)], 0.0)
    cones = (NonNeg(2 * (N - 1)),) + (SecondOrder(4), SecondOrder(3)) * F

    c = np.zeros(n)
    # vanishing pressure on squared currents keeps the cone tight even on
    # zero-resistance lines, where losses alone leave l unpinned
    c[off_l : off_l + F] = 1e-9

    A, b = eq.matrix(n)
    G, h = cone.matrix(n)
    prog = ConicProgram(c=c, A=A, b=b, G=G, h=h, cones=cones)
    return BranchFlowProgram(
        prog=prog,
        feeder=fd,
        off_p=off_p,
        off_q=off_q,
        off_v=off_v,
        off_l=off_l,
        p_ug=p_ug,
        q_ug=q_ug,
        p_loss=p_loss,
        balance_rows=balance_rows,
        tan_phi=np.array([float(np.tan(np.arccos(net.bus(bid).pf))) for bid in fd.bus_ids]),
    )


def hour_programs(
    bf: BranchFlowProgram, inp: DsoInput, loss_price: np.ndarray, rho_prime: float
) -> list[ConicProgram]:
    """One program per hour on bf's structure with the hour's injections and loss terms.

    The active balance rows of b take the nodal net consumptions (0 where
    absent) and the reactive rows the same times ``bf.tan_phi``; the total
    loss P costs loss_price*P + lambda_loss*(p_loss_tilde - P) +
    rho_prime/2*(P - p_loss_tilde)^2, ``loss_price`` being the hour's loss
    cost times the interval length.
    """
    fd = bf.feeder
    T = len(inp.p_loss_tilde)
    N = len(fd.bus_ids)
    # nodal injections per hour in balance-row order (PCC first), 0 where absent
    node = inp.p_net_node
    inject = np.array([np.asarray(node[b], dtype=float) if b in node else np.zeros(T)
                       for b in fd.bus_ids]).reshape(N, T)
    q = bf.prog.q.copy()
    q[bf.p_loss] = rho_prime
    progs = []
    for t in range(T):
        b = bf.prog.b.copy()
        b[:N], b[N : 2 * N] = inject[:, t], inject[:, t] * bf.tan_phi
        c = bf.prog.c.copy()
        lam, tilde = float(inp.lambda_loss[t]), float(inp.p_loss_tilde[t])
        c[bf.p_loss] = float(loss_price[t]) - lam - rho_prime * tilde
        c0 = lam * tilde + 0.5 * rho_prime * tilde**2
        progs.append(replace(bf.prog, b=b, c=c, q=q, c0=c0))
    return progs


def read_hours(
    bf: BranchFlowProgram, progs: list[ConicProgram], X: np.ndarray, Y: np.ndarray, dt: float
) -> DsoOutput:
    """Losses, prices, voltages, flows and objectives of the solved hours ``progs``.

    Row t of X and Y is hour t's primal point and equality duals.  A bus's
    price is the dual of its active balance divided by the interval length.
    """
    fd = bf.feeder
    T = len(progs)
    N = len(fd.bus_ids)
    F = len(fd.oriented)
    pf = X[:, bf.off_p : bf.off_p + F]
    qf = X[:, bf.off_q : bf.off_q + F]
    lf = X[:, bf.off_l : bf.off_l + F].copy()
    V = X[:, bf.off_v : bf.off_v + N]
    vfrom = V[:, [fd.bus_pos[fb] for fb, _, _, _, _ in fd.oriented]]
    r = np.array([o[2] for o in fd.oriented])
    x = np.array([o[3] for o in fd.oriented])
    s2 = pf * pf + qf * qf
    # zero-impedance line: nothing in the program references l, so report
    # the physical squared current directly
    zero = (r == 0.0) & (x == 0.0)
    lf[:, zero] = s2[:, zero] / vfrom[:, zero]
    # losses summed line by line in feeder order
    p_loss = np.cumsum(np.hstack([np.zeros((T, 1)), r * lf]), axis=1)[:, -1]
    prices = Y[:, [bf.balance_rows[bid] for bid in fd.bus_ids]]
    dlmp_rows, v_rows = (prices / dt).T.copy(), V.T.copy()
    flow_rows = {key: a.T.copy() for key, a in (("p", pf), ("q", qf), ("l", lf))}
    return DsoOutput(
        p_loss=p_loss,
        dlmp={bid: dlmp_rows[i] for i, bid in enumerate(fd.bus_ids)},
        v={bid: v_rows[i] for i, bid in enumerate(fd.bus_ids)},
        flows={li: {key: rows[li] for key, rows in flow_rows.items()} for li in range(F)},
        tightness=(vfrom * lf - s2).T.copy(),
        objective=np.array([prog.objective(xt) for prog, xt in zip(progs, X)]),
        lines_oriented=tuple((fb, tb) for fb, tb, _, _, _ in fd.oriented),
    )


def relaxed_limits(net: NetworkModel) -> NetworkModel:
    """The same feeder with line capacities and voltage bounds made non-binding."""
    return NetworkModel(
        buses=tuple(replace(b, vmin=0.1, vmax=4.0) for b in net.buses),
        lines=tuple(Line(ln.from_bus, ln.to_bus, ln.r, ln.x, 1e3) for ln in net.lines),
        base_mva=net.base_mva,
        base_kv=net.base_kv,
    )


def limit_violations(net: NetworkModel, out: DsoOutput) -> list[tuple[int, str]]:
    """(hour, limit) for every line capacity and voltage bound of net that out exceeds."""
    found = []
    for li, (fb, tb) in enumerate(out.lines_oriented):
        smax = net.lines[li].s_max
        s = np.hypot(out.flows[li]["p"], out.flows[li]["q"])
        for t in np.nonzero(s > smax + 1e-9)[0]:
            found.append((int(t), f"line {fb}-{tb} capacity ({s[t]:.4f} > {smax:.4f})"))
    for bus in net.buses:
        v = out.v[bus.id]
        for t in np.nonzero(v < bus.vmin**2 - 1e-9)[0]:
            found.append((int(t), f"voltage lower bound at bus {bus.id} (v^2={v[t]:.4f})"))
        for t in np.nonzero(v > bus.vmax**2 + 1e-9)[0]:
            found.append((int(t), f"voltage upper bound at bus {bus.id} (v^2={v[t]:.4f})"))
    return sorted(found, key=lambda tm: tm[0])


def _diagnose(net: NetworkModel, inp: DsoInput, t: int) -> str:
    """Re-solve hour t without caps or voltage bounds and name violated limits."""
    relaxed = relaxed_limits(net)
    if relaxed == net:
        # already relaxed: the solve below would only fail the same way
        return "network equations unsolvable at these injections"
    hour = DsoInput(
        p_net_node={b: np.asarray(v, dtype=float)[t : t + 1] for b, v in inp.p_net_node.items()},
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )
    try:
        out = solve_dso_subproblem(relaxed, hour, np.ones(1), 1.0)
    except (DsoInfeasible, SolveFailed):
        return "network equations unsolvable at these injections"
    issues = [msg for _, msg in limit_violations(net, out)]
    return "; ".join(issues) if issues else "no single binding bound identified"


def solve_dso_subproblem(
    net: NetworkModel,
    inp: DsoInput,
    loss_cost: np.ndarray,
    dt: float,
    rho_prime: float = 0.0,
    bf: BranchFlowProgram | None = None,
    starts: NetworkStarts | None = None,
) -> DsoOutput:
    """Solve the hourly network programs and extract prices.

    ``bf`` is net's structure from ``assemble_branch_flow``, built here when
    not given; a clearing builds it once and passes it to every pass.  The
    hours (``hour_programs``) are solved as one batch and read back by
    ``read_hours``.  ``starts``, if given, is the clearing's
    :class:`NetworkStarts`: each hour starts from its solution there, if
    any, and the hours' new solutions replace them.  The first hour that
    does not end optimal raises: :class:`DsoInfeasible`, naming the binding
    limit, when it ends infeasible, which the solver reports only with a
    certificate, and :class:`SolveFailed` otherwise.
    """
    bf = assemble_branch_flow(net) if bf is None else bf
    progs = hour_programs(bf, inp, np.asarray(loss_cost, dtype=float) * dt, rho_prime)
    starts = NetworkStarts() if starts is None else starts
    sols = solve_socp_batch(progs, starts=starts.hours, patterns=starts.patterns)
    for t, sol in enumerate(sols):
        if sol.status == INFEASIBLE:
            raise DsoInfeasible(t, _diagnose(net, inp, t))
        if sol.status != OPTIMAL:
            raise SolveFailed(f"network hour {t}", sol.status)
    starts.hours = [(sol.x, sol.y, sol.s, sol.z) for sol in sols]
    T, n, m = len(progs), bf.prog.n_vars, bf.prog.n_eq
    X = np.array([sol.x for sol in sols]).reshape(T, n)
    Y = np.array([sol.y for sol in sols]).reshape(T, m)
    return read_hours(bf, progs, X, Y, dt)


@dataclass
class TightnessReport:
    max_residual: float
    flagged: list[tuple[int, int, float]] = field(default_factory=list)  # (line, t, residual)

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_tightness(out: DsoOutput, tol: float = 1e-6) -> TightnessReport:
    """Flag every (line, hour) where the cone relaxation is loose."""
    flagged = [
        (int(li), int(t), float(out.tightness[li, t])) for li, t in np.argwhere(out.tightness > tol)
    ]
    max_res = float(np.max(out.tightness)) if out.tightness.size else 0.0
    return TightnessReport(max_residual=max_res, flagged=flagged)
