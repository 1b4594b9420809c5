"""Domain types for the feeder, prosumer devices, scenarios and solver configuration.

All electrical quantities are stored per-unit on the scenario power base;
currency amounts are scenario currency per per-unit-hour of energy (the
loader, ``io_cli``, scales SI tables to per unit as it reads them).  Types are
frozen dataclasses: immutable after construction and safe to share across
concurrent workers.  Each bus carries the static power factor from which the
network operator derives reactive from net active consumption.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "NetworkModel",
    "PvUnit",
    "StorageDevice",
    "FlexibleLoad",
    "Prosumer",
    "AdmmConfig",
    "Scenario",
    "FeederIndex",
    "ValidationReport",
    "validate_network",
    "reactive_from_pf",
]


def _arr(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Bus:
    id: int
    vmin: float = 0.90
    vmax: float = 1.10
    is_pcc: bool = False
    pf: float = 0.85


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    s_max: float


@dataclass(frozen=True)
class NetworkModel:
    """Radial feeder: buses, lines and the per-unit bases they are scaled on."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    base_mva: float = 1.0
    base_kv: float = 1.0

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"unknown bus {bus_id}")


@dataclass(frozen=True)
class PvUnit:
    """Rooftop PV: curtailable active power capped by forecast and inverter size."""

    p_forecast: np.ndarray  # per-unit, one entry per hour
    s_inv: float            # inverter capacity, per-unit
    pf: float = 1.0

    def cap(self, t: int) -> float:
        # generation limit: min of forecast and inverter active capability
        return min(float(self.p_forecast[t]), self.pf * self.s_inv)

    def __post_init__(self):
        object.__setattr__(self, "p_forecast", _arr(self.p_forecast))
        if self.s_inv <= 0:
            raise ValueError("PV inverter capacity must be positive")
        if not (0.0 < self.pf <= 1.0):
            raise ValueError("PV power factor must lie in (0, 1]")
        if np.any(self.p_forecast < 0):
            raise ValueError("PV forecast must be nonnegative")


@dataclass(frozen=True)
class StorageDevice:
    """Battery storage; covers both stationary units (full-horizon window,
    energy-neutral day) and vehicle batteries (plug-in window plus a departure
    energy floor)."""

    name: str
    p_ch_max: float
    p_dch_max: float
    eta_ch: float
    eta_dch: float
    e0: float
    soc_min: float
    soc_max: float
    window: tuple[int, int]      # inclusive [t_arrive, t_depart]
    e_trip: float = 0.0
    throughput_cost: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_dch <= 1.0):
            raise ValueError(f"storage {self.name}: efficiencies must lie in (0, 1]")
        if not (0.0 <= self.soc_min <= self.e0 <= self.soc_max):
            raise ValueError(f"storage {self.name}: need 0 <= soc_min <= e0 <= soc_max")
        if self.e_trip > self.soc_max:
            raise ValueError(f"storage {self.name}: e_trip exceeds soc_max")
        if self.window[1] < self.window[0]:
            raise ValueError(f"storage {self.name}: empty availability window")
        if self.p_ch_max < 0 or self.p_dch_max < 0:
            raise ValueError(f"storage {self.name}: power limits must be nonnegative")

    def hours(self) -> range:
        return range(self.window[0], self.window[1] + 1)


@dataclass(frozen=True)
class FlexibleLoad:
    """Interruptible/shiftable load: a signed hourly deviation from the baseline."""

    p_fl_max: np.ndarray      # per-hour bound on |deviation|, per-unit
    t_max: int                # max number of hours the load pattern may change
    e_min: float              # daily energy floor after curtailment, per-unit-hour
    discomfort_cost: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p_fl_max", _arr(self.p_fl_max))
        if np.any(self.p_fl_max < 0):
            raise ValueError("flexible-load bounds must be nonnegative")
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if not 0.0 <= self.e_min < math.inf:
            raise ValueError(f"e_min must be finite and nonnegative, got {self.e_min!r}")


@dataclass(frozen=True)
class Prosumer:
    id: str
    bus_id: int
    baseline_load: np.ndarray   # per-unit
    pvs: tuple[PvUnit, ...] = ()
    storages: tuple[StorageDevice, ...] = ()
    fls: tuple[FlexibleLoad, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "baseline_load", _arr(self.baseline_load))
        if np.any(self.baseline_load < 0):
            raise ValueError(f"prosumer {self.id}: baseline load must be nonnegative")


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1.0
    rho_prime: float = 1.0
    eps1: float = 1e-4
    eps2: float = 1e-4
    max_outer: int = 100
    max_inner: int = 50

    def __post_init__(self):
        for name in ("rho", "rho_prime", "eps1", "eps2"):
            # NaN and the infinities fail this test, and so do integers past the float range
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"ADMM setting {name} must be finite, got {getattr(self, name)!r}")
        if self.rho <= 0 or self.rho_prime <= 0:
            raise ValueError("penalty weights must be positive")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("stopping tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass(frozen=True)
class Scenario:
    """A complete per-unit market instance.

    ``background`` holds non-participating load per bus (zeros when absent).
    """

    network: NetworkModel
    prosumers: tuple[Prosumer, ...]
    horizon: int
    dt: float
    wem_price: np.ndarray          # currency per per-unit-hour
    loss_cost: np.ndarray          # currency per per-unit-hour
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    background: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "wem_price", _arr(self.wem_price))
        object.__setattr__(self, "loss_cost", _arr(self.loss_cost))
        object.__setattr__(
            self, "background", {n: _arr(v) for n, v in self.background.items()}
        )
        if self.horizon < 1:
            raise ValueError("horizon must be at least one hour")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.wem_price) != self.horizon or len(self.loss_cost) != self.horizon:
            raise ValueError("price series must cover the horizon")
        for p in self.prosumers:
            if len(p.baseline_load) != self.horizon:
                raise ValueError(f"prosumer {p.id}: baseline must cover the horizon")
            for d in p.storages:
                if not (0 <= d.window[0] <= d.window[1] < self.horizon):
                    raise ValueError(
                        f"prosumer {p.id}: window of {d.name} outside horizon"
                    )

    def background_at(self, bus_id: int) -> np.ndarray:
        return self.background.get(bus_id, np.zeros(self.horizon))

    def total_background(self) -> np.ndarray:
        tot = np.zeros(self.horizon)
        for v in self.background.values():
            tot = tot + v
        return tot


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


def _walk(net: NetworkModel, pcc: int) -> tuple[FeederIndex, bool]:
    """Breadth-first walk of the feeder from ``pcc``.

    A bus's neighbours are visited by ascending bus id, parallel lines in
    line order.  Returns the orientation of the buses reached (a line not
    reached is None in ``oriented``) and whether some line, other than the
    one that reached a bus, joins two reached buses: a cycle.
    """
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in net.buses}
    for i, ln in enumerate(net.lines):
        adj[ln.from_bus].append((ln.to_bus, i))
        adj[ln.to_bus].append((ln.from_bus, i))
    order = [pcc]
    oriented: list = [None] * len(net.lines)
    in_line: dict[int, int] = {}
    out_lines: dict[int, list[int]] = {b.id: [] for b in net.buses}
    cycle = False
    for node in order:  # grows as buses are reached
        for nb, li in sorted(adj[node]):  # lines enter adj in line order
            if nb == pcc or nb in in_line:
                cycle = cycle or li != in_line.get(node)
                continue
            ln = net.lines[li]
            oriented[li] = (node, nb, ln.r, ln.x, ln.s_max)
            in_line[nb] = li
            out_lines[node].append(li)
            order.append(nb)
    feeder = FeederIndex(
        bus_ids=tuple(order),
        bus_pos={b: i for i, b in enumerate(order)},
        pcc=pcc,
        oriented=tuple(oriented),
        in_line=in_line,
        out_lines={b: tuple(v) for b, v in out_lines.items()},
    )
    return feeder, cycle


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    # the feeder's orientation, kept by validate_network when every check passes
    feeder: FeederIndex | None = field(default=None, init=False)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


def validate_network(net: NetworkModel) -> ValidationReport:
    """Check feeder invariants: radial topology, single PCC, sane parameters.

    Radiality is verified by a breadth-first walk rooted at the PCC; cycles,
    disconnected buses and duplicate/missing PCCs are each named in the
    report.  A feeder that passes every check keeps the walk's orientation
    as the report's ``feeder``.
    """
    rep = ValidationReport()
    ids = [b.id for b in net.buses]
    rep.record("unique bus ids", len(set(ids)) == len(ids), "duplicate bus id")

    pccs = [b.id for b in net.buses if b.is_pcc]
    if len(pccs) == 0:
        rep.record("pcc", False, "missing PCC")
    elif len(pccs) > 1:
        rep.record("pcc", False, f"multiple PCC buses: {pccs}")
    else:
        rep.record("pcc", True)

    bad_param = []
    for ln in net.lines:
        if ln.r < 0 or ln.x < 0:
            bad_param.append(f"negative impedance on line {ln.from_bus}-{ln.to_bus}")
        if ln.s_max <= 0:
            bad_param.append(f"nonpositive capacity on line {ln.from_bus}-{ln.to_bus}")
        if ln.from_bus not in ids or ln.to_bus not in ids:
            bad_param.append(f"line {ln.from_bus}-{ln.to_bus} references unknown bus")
    rep.record("line parameters", not bad_param, "; ".join(bad_param))

    bad_v = [
        f"bus {b.id}" for b in net.buses if not (0.0 < b.vmin <= b.vmax)
    ]
    rep.record("voltage bounds", not bad_v, "bad voltage bounds at " + ", ".join(bad_v))
    bad_pf = [f"bus {b.id}" for b in net.buses if not (0.0 < b.pf <= 1.0)]
    rep.record("power factors", not bad_pf, "power factor outside (0, 1] at " + ", ".join(bad_pf))

    count_ok = len(net.lines) == len(net.buses) - 1
    rep.record(
        "line count",
        count_ok,
        f"cycle detected or missing line: {len(net.lines)} lines for {len(net.buses)} buses",
    )

    if len(pccs) == 1 and not bad_param:
        feeder, cycle = _walk(net, pccs[0])
        rep.record("no cycles", not cycle, "cycle detected")
        missing = sorted(set(ids) - set(feeder.bus_ids))
        rep.record(
            "connected", not missing, f"disconnected bus(es): {missing}" if missing else ""
        )
        if rep.ok:
            rep.feeder = feeder
    return rep


def reactive_from_pf(p: float, pf: float) -> float:
    """Reactive power drawn by a load of active power ``p`` at lagging power
    factor ``pf`` (positive = consumption)."""
    if not (0.0 < pf <= 1.0):
        raise ValueError("power factor must lie in (0, 1]")
    if p < 0:
        raise ValueError("active power must be nonnegative")
    return p * math.tan(math.acos(pf))
