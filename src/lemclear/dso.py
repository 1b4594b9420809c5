"""DSO agent: hourly branch-flow cone programs, losses and nodal prices.

The feeder is oriented parent-to-child from the PCC and each hour becomes an
independent cone program in line flows (p, q), squared currents (l) and
squared voltages (v).  The quadratic flow-current coupling is relaxed to a
rotated cone written as SecondOrder(4) blocks; line capacity is a
SecondOrder(3) block.  The dual of a bus's active-power balance, divided by
the interval length, is that bus's energy price.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Bus, Line, NetworkModel, validate_network
from .socp import OPTIMAL, ConicProgram, NonNeg, SecondOrder, SparseRows, solve_socp

__all__ = [
    "FeederIndex",
    "orient_feeder",
    "BranchFlowProgram",
    "DsoInput",
    "DsoOutput",
    "DsoInfeasible",
    "assemble_branch_flow",
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


@dataclass(frozen=True)
class FeederIndex:
    """Radial orientation of a validated feeder."""

    bus_ids: tuple[int, ...]                  # PCC first, then BFS order
    bus_pos: dict[int, int]
    pcc: int
    # per original line index: (parent, child, r, x, s_max)
    oriented: tuple[tuple[int, int, float, float, float], ...]
    in_line: dict[int, int]                   # child bus -> line index
    out_lines: dict[int, tuple[int, ...]]     # bus -> outgoing line indices


def orient_feeder(net: NetworkModel) -> FeederIndex:
    rep = validate_network(net)
    if not rep.ok:
        raise ValueError("network failed validation: " + "; ".join(rep.failures()))
    pcc = net.pcc_id()
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in net.buses}
    for i, ln in enumerate(net.lines):
        adj[ln.from_bus].append((ln.to_bus, i))
        adj[ln.to_bus].append((ln.from_bus, i))
    order = [pcc]
    seen = {pcc}
    oriented: list[tuple[int, int, float, float, float] | None] = [None] * len(net.lines)
    in_line: dict[int, int] = {}
    out_lines: dict[int, list[int]] = {b.id: [] for b in net.buses}
    queue = [pcc]
    while queue:
        node = queue.pop(0)
        for nb, li in sorted(adj[node], key=lambda t: t[0]):
            if nb in seen:
                continue
            seen.add(nb)
            ln = net.lines[li]
            oriented[li] = (node, nb, ln.r, ln.x, ln.s_max)
            in_line[nb] = li
            out_lines[node].append(li)
            order.append(nb)
            queue.append(nb)
    return FeederIndex(
        bus_ids=tuple(order),
        bus_pos={b: i for i, b in enumerate(order)},
        pcc=pcc,
        oriented=tuple(o for o in oriented),  # type: ignore[misc]
        in_line=in_line,
        out_lines={b: tuple(v) for b, v in out_lines.items()},
    )


@dataclass
class BranchFlowProgram:
    """One hour's cone program plus the variable map needed to read it back.

    The variables are exactly the physical unknowns: flows p and q, squared
    currents l and squared voltages v per line and bus, the grid import and
    export pair and the total loss.
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


@dataclass(frozen=True)
class DsoInput:
    """Signals the network operator needs for one clearing pass.

    Reactive consumption is derived operator-side from static per-bus power
    factors; only active net consumption crosses the agent boundary.
    """

    p_net_node: dict[int, np.ndarray]
    q_net_node: dict[int, np.ndarray]
    p_loss_tilde: np.ndarray
    lambda_loss: np.ndarray


@dataclass
class DsoOutput:
    p_loss: np.ndarray                     # per hour, recomputed as sum r*l
    dlmp: dict[int, np.ndarray]            # per bus, currency per pu-hour
    v: dict[int, np.ndarray]               # squared voltages
    flows: dict[int, dict[str, np.ndarray]]   # line idx -> {p,q,l}
    tightness: np.ndarray                  # (lines, T) cone residual v*l-(p^2+q^2)
    objective: np.ndarray                  # per-hour subproblem objective
    lines_oriented: tuple[tuple[int, int], ...]


def assemble_branch_flow(
    net: NetworkModel,
    p_net: dict[int, float],
    q_net: dict[int, float],
    loss_price: float,
    lambda_loss: float = 0.0,
    rho_prime: float = 0.0,
    p_loss_tilde: float = 0.0,
    feeder: FeederIndex | None = None,
) -> BranchFlowProgram:
    """Build the hourly network program for given nodal net consumptions.

    ``loss_price`` is the loss cost coefficient for this hour already
    multiplied by the interval length; the consensus terms (lambda_loss,
    rho_prime, p_loss_tilde) may be zero for a plain minimum-loss solve.
    """
    fd = feeder if feeder is not None else orient_feeder(net)
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
    for off, grid, injections, k in ((off_p, p_ug, p_net, 2), (off_q, q_ug, q_net, 3)):
        for bid in fd.bus_ids:
            if bid == fd.pcc:
                entries = [(grid, 1.0)]
            else:
                li = fd.in_line[bid]
                entries = [(off + li, 1.0), (off_l + li, -fd.oriented[li][k])]
            entries += [(off + lo, -1.0) for lo in fd.out_lines[bid]]
            eq.add(entries, injections.get(bid, 0.0))
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
    qdiag = np.zeros(n)
    c[p_loss] = loss_price - lambda_loss - rho_prime * p_loss_tilde
    qdiag[p_loss] = rho_prime
    c0 = lambda_loss * p_loss_tilde + 0.5 * rho_prime * p_loss_tilde**2
    # vanishing pressure on squared currents keeps the cone tight even on
    # zero-resistance lines, where losses alone leave l unpinned
    c[off_l : off_l + F] += 1e-9

    A, b = eq.matrix(n)
    G, h = cone.matrix(n)
    prog = ConicProgram(c=c, A=A, b=b, G=G, h=h, cones=cones, q=qdiag, c0=c0)
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
    )


def relaxed_limits(net: NetworkModel) -> NetworkModel:
    """The same feeder with line capacities and voltage bounds made non-binding."""
    return NetworkModel(
        buses=tuple(Bus(b.id, 0.1, 4.0, b.is_pcc) for b in net.buses),
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


def _diagnose(net: NetworkModel, p_net, q_net) -> str:
    """Re-solve one hour without caps or voltage bounds and name violated limits."""
    relaxed = relaxed_limits(net)
    if relaxed == net:
        # already relaxed: the solve below would only fail the same way
        return "network equations unsolvable at these injections"
    hour = DsoInput(
        p_net_node={b: np.array([v]) for b, v in p_net.items()},
        q_net_node={b: np.array([v]) for b, v in q_net.items()},
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )
    try:
        out = solve_dso_subproblem(relaxed, hour, np.ones(1), 1.0)
    except DsoInfeasible:
        return "network equations unsolvable at these injections"
    issues = [msg for _, msg in limit_violations(net, out)]
    return "; ".join(issues) if issues else "no single binding bound identified"


def solve_dso_subproblem(
    net: NetworkModel,
    inp: DsoInput,
    loss_cost: np.ndarray,
    dt: float,
    rho_prime: float = 0.0,
    tol: float = 1e-8,
    feeder: FeederIndex | None = None,
) -> DsoOutput:
    """Solve the hourly network programs and extract prices.

    Hours are independent programs; each bus's price is the dual of its
    active balance divided by the interval length.  An infeasible hour
    raises :class:`DsoInfeasible` naming the binding limit.
    """
    fd = feeder if feeder is not None else orient_feeder(net)
    T = len(inp.p_loss_tilde)
    F = len(net.lines)
    p_loss = np.zeros(T)
    objective = np.zeros(T)
    dlmp = {bid: np.zeros(T) for bid in fd.bus_ids}
    v = {bid: np.zeros(T) for bid in fd.bus_ids}
    flows = {li: {k: np.zeros(T) for k in ("p", "q", "l")} for li in range(F)}
    tight = np.zeros((F, T))

    for t in range(T):
        p_net = {bid: float(inp.p_net_node[bid][t]) for bid in fd.bus_ids if bid in inp.p_net_node}
        q_net = {bid: float(inp.q_net_node[bid][t]) for bid in fd.bus_ids if bid in inp.q_net_node}
        bf = assemble_branch_flow(
            net,
            p_net,
            q_net,
            loss_price=float(loss_cost[t]) * dt,
            lambda_loss=float(inp.lambda_loss[t]),
            rho_prime=rho_prime,
            p_loss_tilde=float(inp.p_loss_tilde[t]),
            feeder=fd,
        )
        sol = solve_socp(bf.prog, tol=tol)
        if sol.status != OPTIMAL:
            raise DsoInfeasible(t, _diagnose(net, p_net, q_net))
        loss_sum = 0.0
        for li, (_, _, r, x, _) in enumerate(fd.oriented):
            pf = float(sol.x[bf.off_p + li])
            qf = float(sol.x[bf.off_q + li])
            lf = float(sol.x[bf.off_l + li])
            vfrom = float(sol.x[bf.off_v + fd.bus_pos[fd.oriented[li][0]]])
            if r == 0.0 and x == 0.0:
                # zero-impedance line: nothing in the program references l,
                # so report the physical squared current directly
                lf = (pf * pf + qf * qf) / vfrom
            flows[li]["p"][t] = pf
            flows[li]["q"][t] = qf
            flows[li]["l"][t] = lf
            tight[li, t] = vfrom * lf - (pf * pf + qf * qf)
            loss_sum += r * lf
        p_loss[t] = loss_sum
        objective[t] = sol.obj
        for i, bid in enumerate(fd.bus_ids):
            v[bid][t] = float(sol.x[bf.off_v + i])
            dlmp[bid][t] = float(sol.y[bf.balance_rows[bid]]) / dt
    return DsoOutput(
        p_loss=p_loss,
        dlmp=dlmp,
        v=v,
        flows=flows,
        tightness=tight,
        objective=objective,
        lines_oriented=tuple((fb, tb) for fb, tb, _, _, _ in fd.oriented),
    )


@dataclass
class TightnessReport:
    max_residual: float
    flagged: list[tuple[int, int, float]] = field(default_factory=list)  # (line, t, residual)

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_tightness(out: DsoOutput, tol: float = 1e-6) -> TightnessReport:
    """Flag every (line, hour) where the cone relaxation is loose."""
    flagged = []
    F, T = out.tightness.shape
    for li in range(F):
        for t in range(T):
            if out.tightness[li, t] > tol:
                flagged.append((li, t, float(out.tightness[li, t])))
    max_res = float(np.max(out.tightness)) if out.tightness.size else 0.0
    return TightnessReport(max_residual=max_res, flagged=flagged)
