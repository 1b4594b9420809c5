"""Scenario directories, the synthetic scenario generator, result emission
and the command-line entry point.

A scenario directory holds ``manifest.json`` plus seven CSV files (formats
documented in docs/formats.md).  Generation draws from seeded streams only:
the same recipe always yields byte-identical tables, and per-bus substreams
keep device draws stable when the hosting fraction changes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dso import DsoInfeasible, orient_feeder
from .market import ClearingResult, run_clearing
from .model import (
    AdmmConfig,
    Bus,
    FlexibleLoad,
    Line,
    NetworkModel,
    Prosumer,
    PvUnit,
    Scenario,
    StorageDevice,
    validate_network,
)
from .oracle import solve_centralized, solve_selfish
from .socp import SolveFailed

__all__ = [
    "ScenarioFormatError",
    "ScenarioTables",
    "GeneratorSpec",
    "load_scenario",
    "read_tables",
    "write_tables",
    "assemble_scenario",
    "generate_tables",
    "generate_scenario",
    "emit_results",
    "bundled_scenario_dir",
    "cli_main",
    "main",
]


class ScenarioFormatError(ValueError):
    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


# JSON values a dataclass field of each annotated type accepts (bool excluded)
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
# the manifest's top-level settings and their types; its floats must be finite
_MANIFEST_TYPES = {"base_mva": "float", "base_kv": "float", "horizon": "int", "dt": "float",
                   "units": "str"}


def _type_issues(data: dict, types: dict[str, str], where: str, finite: bool = False) -> list[str]:
    """What is wrong with the values of ``data`` under the keys of ``types``:
    each must be a JSON value of its type and, with ``finite``, a float finite."""
    issues = []
    for key, kind in types.items():
        if key not in data:
            continue
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            issues.append(f"{where}: {key!r} must be {kind}, got {value!r}")
        # NaN and the infinities fail this test, and so do integers past the float range
        elif finite and kind == "float" and not abs(value) <= sys.float_info.max:
            issues.append(f"{where}: {key!r} must be finite, got {value!r}")
    return issues


def _json_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioFormatError([f"{where}: expected a JSON object, got {type(data).__name__}"])
    return data


def _keywords(cls, data, where: str) -> dict:
    """``data`` as keyword arguments of the dataclass ``cls``: a JSON object
    whose keys are fields of ``cls`` and whose values have their types."""
    _json_object(data, where)
    types = {f.name: f.type for f in fields(cls)}
    issues = [f"{where}: unknown key {key!r}" for key in data if key not in types]
    issues += _type_issues(data, types, where)
    if issues:
        raise ScenarioFormatError(issues)
    return data


# ---------------------------------------------------------------------------
# canonical daily shapes (synthetic, evening-peaked price and midday sun;
# shaped like typical wholesale curves but not tied to any published feed)
# ---------------------------------------------------------------------------

LOAD_SCALE_24 = [
    0.62, 0.58, 0.55, 0.53, 0.52, 0.54, 0.60, 0.70, 0.78, 0.82, 0.84, 0.85,
    0.84, 0.82, 0.80, 0.82, 0.88, 0.95, 1.00, 0.98, 0.92, 0.84, 0.74, 0.66,
]
WEM_PRICE_24 = [
    24.0, 22.0, 20.05, 20.0, 20.1, 22.5, 28.0, 38.0, 48.0, 55.0, 58.0, 56.0,
    52.0, 50.0, 49.0, 52.0, 62.0, 78.0, 90.0, 86.0, 72.0, 55.0, 42.0, 30.0,
]
LOSS_COST_24 = [30.0] * 24
PV_CF_24 = [
    0.0, 0.0, 0.0, 0.0, 0.0, 0.02, 0.10, 0.25, 0.42, 0.58, 0.70, 0.78,
    0.80, 0.76, 0.66, 0.52, 0.35, 0.18, 0.06, 0.01, 0.0, 0.0, 0.0, 0.0,
]

# IEEE 69-bus radial feeder (12.66 kV): (from, to, r_ohm, x_ohm); loads in kW,
# kvar at the receiving bus.  Classic reconfiguration-literature data.
IEEE69_LINES = [
    (1, 2, 0.0005, 0.0012), (2, 3, 0.0005, 0.0012), (3, 4, 0.0015, 0.0036),
    (4, 5, 0.0251, 0.0294), (5, 6, 0.3660, 0.1864), (6, 7, 0.3811, 0.1941),
    (7, 8, 0.0922, 0.0470), (8, 9, 0.0493, 0.0251), (9, 10, 0.8190, 0.2707),
    (10, 11, 0.1872, 0.0619), (11, 12, 0.7114, 0.2351), (12, 13, 1.0300, 0.3400),
    (13, 14, 1.0440, 0.3450), (14, 15, 1.0580, 0.3496), (15, 16, 0.1966, 0.0650),
    (16, 17, 0.3744, 0.1238), (17, 18, 0.0047, 0.0016), (18, 19, 0.3276, 0.1083),
    (19, 20, 0.2106, 0.0690), (20, 21, 0.3416, 0.1129), (21, 22, 0.0140, 0.0046),
    (22, 23, 0.1591, 0.0526), (23, 24, 0.3463, 0.1145), (24, 25, 0.7488, 0.2475),
    (25, 26, 0.3089, 0.1021), (26, 27, 0.1732, 0.0572), (3, 28, 0.0044, 0.0108),
    (28, 29, 0.0640, 0.1565), (29, 30, 0.3978, 0.1315), (30, 31, 0.0702, 0.0232),
    (31, 32, 0.3510, 0.1160), (32, 33, 0.8390, 0.2816), (33, 34, 1.7080, 0.5646),
    (34, 35, 1.4740, 0.4873), (3, 36, 0.0044, 0.0108), (36, 37, 0.0640, 0.1565),
    (37, 38, 0.1053, 0.1230), (38, 39, 0.0304, 0.0355), (39, 40, 0.0018, 0.0021),
    (40, 41, 0.7283, 0.8509), (41, 42, 0.3100, 0.3623), (42, 43, 0.0410, 0.0478),
    (43, 44, 0.0092, 0.0116), (44, 45, 0.1089, 0.1373), (45, 46, 0.0009, 0.0012),
    (4, 47, 0.0034, 0.0084), (47, 48, 0.0851, 0.2083), (48, 49, 0.2898, 0.7091),
    (49, 50, 0.0822, 0.2011), (8, 51, 0.0928, 0.0473), (51, 52, 0.3319, 0.1114),
    (9, 53, 0.1740, 0.0886), (53, 54, 0.2030, 0.1034), (54, 55, 0.2842, 0.1447),
    (55, 56, 0.2813, 0.1433), (56, 57, 1.5900, 0.5337), (57, 58, 0.7837, 0.2630),
    (58, 59, 0.3042, 0.1006), (59, 60, 0.3861, 0.1172), (60, 61, 0.5075, 0.2585),
    (61, 62, 0.0974, 0.0496), (62, 63, 0.1450, 0.0738), (63, 64, 0.7105, 0.3619),
    (64, 65, 1.0410, 0.5302), (11, 66, 0.2012, 0.0611), (66, 67, 0.0047, 0.0014),
    (12, 68, 0.7394, 0.2444), (68, 69, 0.0047, 0.0016),
]
IEEE69_LOADS_KW = {
    6: (2.6, 2.2), 7: (40.4, 30.0), 8: (75.0, 54.0), 9: (30.0, 22.0),
    10: (28.0, 19.0), 11: (145.0, 104.0), 12: (145.0, 104.0), 13: (8.0, 5.0),
    14: (8.0, 5.5), 16: (45.5, 30.0), 17: (60.0, 35.0), 18: (60.0, 35.0),
    20: (1.0, 0.6), 21: (114.0, 81.0), 22: (5.0, 3.5), 24: (28.0, 20.0),
    26: (14.0, 10.0), 27: (14.0, 10.0), 28: (26.0, 18.6), 29: (26.0, 18.6),
    33: (14.0, 10.0), 34: (19.5, 14.0), 35: (6.0, 4.0), 36: (26.0, 18.55),
    37: (26.0, 18.55), 39: (24.0, 17.0), 40: (24.0, 17.0), 41: (1.2, 1.0),
    43: (6.0, 4.3), 45: (39.22, 26.3), 46: (39.22, 26.3), 48: (79.0, 56.4),
    49: (384.7, 274.5), 50: (384.7, 274.5), 51: (40.5, 28.3), 52: (3.6, 2.7),
    53: (4.35, 3.5), 54: (26.4, 19.0), 55: (24.0, 17.2), 59: (100.0, 72.0),
    61: (1244.0, 888.0), 62: (32.0, 23.0), 64: (227.0, 162.0), 65: (59.0, 42.0),
    66: (18.0, 13.0), 67: (18.0, 13.0), 68: (28.0, 20.0), 69: (28.0, 20.0),
}


@dataclass
class ScenarioTables:
    """In-memory image of a scenario directory."""

    manifest: dict
    buses: list[dict]
    lines: list[dict]
    prosumers: list[dict]
    pv: list[dict]
    storage: list[dict]
    fl: list[dict]
    profiles: list[dict]


_FILES = ("buses", "lines", "prosumers", "pv", "storage", "fl", "profiles")
# each file's columns and the type every cell of a column is parsed to
_COLUMNS: dict[str, dict[str, type]] = {
    "buses": {"id": int, "vmin": float, "vmax": float, "is_pcc": int},
    "lines": {"from": int, "to": int, "r": float, "x": float, "smax": float},
    "prosumers": {"id": str, "bus": int, "peak_load": float, "pf": float, "active": int},
    "pv": {"prosumer": str, "s_inv": float, "pf": float, "p_peak": float},
    "storage": {
        "prosumer": str, "name": str, "p_ch_max": float, "p_dch_max": float, "eta_ch": float,
        "eta_dch": float, "e0": float, "soc_min": float, "soc_max": float, "t_arrive": int,
        "t_depart": int, "e_trip": float, "throughput_cost": float,
    },
    "fl": {"prosumer": str, "max_frac": float, "t_max": int, "e_min_frac": float,
           "discomfort_cost": float},
    "profiles": {"t": int, "wem_price": float, "loss_cost": float, "load_scale": float,
                 "pv_cf": float},
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_json(path: Path, data) -> None:
    """``data`` as indented JSON with sorted keys and a final newline."""
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_tables(tables: ScenarioTables, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", tables.manifest)
    for name in _FILES:
        rows = getattr(tables, name)
        cols = _COLUMNS[name]
        with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in rows:
                w.writerow([_fmt(row[c]) for c in cols])


def _no_file(path: Path) -> str:
    """Why ``path``, which is not a file, cannot be read."""
    return f"{path} is not a file" if path.exists() else f"missing file {path}"


def _read(path: Path, parse=str):
    """``parse`` of the text of ``path``, its newlines as they are; a file that
    is not UTF-8, or whose text ``parse`` rejects, is an input error naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:  # UnicodeDecodeError, json.JSONDecodeError
        raise ScenarioFormatError([f"{path}: {exc}"]) from None


def read_tables(scen_dir: str | Path) -> ScenarioTables:
    d = Path(scen_dir)
    issues: list[str] = []
    path = d / "manifest.json"
    if not path.is_file():
        raise ScenarioFormatError([_no_file(path)])
    manifest = _json_object(_read(path, json.loads), str(path))
    parts: dict[str, list[dict]] = {}
    for name in _FILES:
        path = d / f"{name}.csv"
        if not path.is_file():
            issues.append(_no_file(path))
            continue
        reader = csv.DictReader(io.StringIO(_read(path), newline=""))
        header = reader.fieldnames or []
        missing = set(_COLUMNS[name]) - set(header)
        bad = [f"{name}.csv: missing columns {sorted(missing)}"] if missing else []
        for col in dict.fromkeys(header):
            if col not in _COLUMNS[name]:
                bad.append(f"{name}.csv: unknown column {col!r}")
            elif header.count(col) > 1:
                bad.append(f"{name}.csv: repeated column {col!r}")
        if bad:
            issues += bad
            continue
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if None in raw:  # DictReader files cells past the header under None
                issues.append(
                    f"{len(raw[None])} surplus cell(s) at {name}.csv:{lineno}, "
                    f"which has {len(_COLUMNS[name])} columns"
                )
            row: dict = {}
            for col, kind in _COLUMNS[name].items():
                cell = raw[col]  # None when the row ends before this column
                try:
                    if cell is None:
                        raise ValueError
                    row[col] = kind(cell)
                    if kind is float and not math.isfinite(row[col]):
                        raise ValueError
                except ValueError:
                    issues.append(
                        f"malformed value {cell!r} for {col!r} at {name}.csv:{lineno}"
                    )
                    row[col] = 0.0
            rows.append(row)
        parts[name] = rows
    if issues:
        raise ScenarioFormatError(issues)
    return ScenarioTables(manifest=manifest, **{n: parts[n] for n in _FILES})


def _unit_scalings(man: dict) -> list:
    """The manifest's power, impedance and price scalings, in that order: each
    multiplies a value in the manifest's units once to give it per unit.  Under
    ``units: "si"`` powers and energies (MW, MVA, MWh) multiply by ``1/base_mva``,
    impedances (ohm) by ``1/(base_kv**2/base_mva)`` and prices (per MWh) by
    ``base_mva``; under ``"per_unit"`` all three factors are 1.0."""
    mva, kv = float(man["base_mva"]), float(man["base_kv"])
    try:
        factors = (1.0 / mva, 1.0 / (kv**2 / mva), mva) if man["units"] == "si" else (1.0,) * 3
    except (OverflowError, ZeroDivisionError):  # base_kv**2 past the float range, or 0
        factors = (1.0 / mva, math.inf, mva)
    return [_scaling(f, k, man[k]) for f, k in zip(factors, ("base_mva", "base_kv", "base_mva"))]


def _scaling(factor: float, key: str, base: float):
    """Multiplication by ``factor``.  A factor that is not finite, or a finite
    value that it takes past the float range, is an input error naming the
    manifest's ``key``, whose value is ``base``."""
    issue = f"manifest.json: {key!r} {base!r} takes per-unit values past the float range"
    if not math.isfinite(factor):
        raise ScenarioFormatError([issue])

    def scale(si):
        value = si * factor
        # a factor of at most 1 keeps a finite value finite, and a value the
        # tables already took past the range is for their checks to name
        if factor <= 1.0 or np.isfinite(value).all() or not np.isfinite(si).all():
            return value
        raise ScenarioFormatError([issue])
    return scale


def _finite(series: np.ndarray, what: str) -> np.ndarray:
    """``series``, checked where it is formed from finite cells: an entry
    past the float range is an input error that names ``what`` it is."""
    if not np.isfinite(series).all():
        raise ScenarioFormatError([f"{what} leaves the float range"])
    return series


# a value that overflows is checked where it is formed, without a warning
@np.errstate(over="ignore")
def assemble_scenario(tables: ScenarioTables) -> Scenario:
    """Cross-validate the tables and build a per-unit scenario, scaling each
    value once as it is read (units in docs/formats.md)."""
    man = tables.manifest
    issues = [f"manifest.json: missing key {key!r}" for key in _MANIFEST_TYPES if key not in man]
    issues += _type_issues(man, _MANIFEST_TYPES, "manifest.json", finite=True)
    if issues:
        raise ScenarioFormatError(issues)
    T = man["horizon"]
    issues = [f"manifest.json: {key!r} must be positive, got {man[key]!r}"
              for key in ("base_mva", "base_kv") if not man[key] > 0]
    if man["units"] not in ("si", "per_unit"):
        issues.append(f"manifest.json: 'units' must be 'si' or 'per_unit', got {man['units']!r}")

    bus_ids = {row["id"] for row in tables.buses}
    for i, row in enumerate(tables.lines, start=2):
        for endpoint in ("from", "to"):
            if row[endpoint] not in bus_ids:
                issues.append(f"unknown bus {row[endpoint]} at lines.csv:{i}")
    first_row: dict[str, int] = {}
    for i, row in enumerate(tables.prosumers, start=2):
        if row["id"] in first_row:
            issues.append(
                f"repeated prosumer id {row['id']!r} at prosumers.csv:{i} "
                f"(first at prosumers.csv:{first_row[row['id']]})"
            )
        first_row.setdefault(row["id"], i)
        if row["bus"] not in bus_ids:
            issues.append(f"unknown bus {row['bus']} at prosumers.csv:{i}")
        # checked row by row: a bus's mean power factor can hide a bad row
        if not 0.0 < row["pf"] <= 1.0:
            issues.append(f"power factor {row['pf']} outside (0, 1] at prosumers.csv:{i}")
    pros_ids = {row["id"] for row in tables.prosumers if row["active"]}
    for name in ("pv", "storage", "fl"):
        for i, row in enumerate(getattr(tables, name), start=2):
            if row["prosumer"] not in pros_ids:
                issues.append(
                    f"unknown or passive prosumer {row['prosumer']!r} at {name}.csv:{i}"
                )
    if len(tables.profiles) != T:
        issues.append(f"profiles.csv: {len(tables.profiles)} rows, horizon is {T}")
    hours: set[int] = set()
    for i, row in enumerate(tables.profiles, start=2):
        if row["t"] in hours or not 0 <= row["t"] < T:
            issues.append(
                f"hour {row['t']} at profiles.csv:{i}: the hours must be 0..{T - 1}, each once"
            )
        hours.add(row["t"])
    if issues:
        raise ScenarioFormatError(issues)
    power, impedance, price = _unit_scalings(man)

    prof = sorted(tables.profiles, key=lambda r: r["t"])
    wem = price(np.array([r["wem_price"] for r in prof]))
    loss_cost = price(np.array([r["loss_cost"] for r in prof]))
    load_scale = np.array([r["load_scale"] for r in prof])
    pv_cf = np.array([r["pv_cf"] for r in prof])

    # a bus's power factor is the peak-load-weighted mean of its rows
    pf_weight: dict[int, list[tuple[float, float]]] = {}
    for r in sorted(tables.prosumers, key=lambda r: r["id"]):
        pf_weight.setdefault(r["bus"], []).append((r["peak_load"], r["pf"]))
    bus_pf = {
        b: sum(w * p for w, p in rows) / sum(w for w, _ in rows)
        for b, rows in pf_weight.items()
        if sum(w for w, _ in rows) > 0
    }
    net = NetworkModel(
        buses=tuple(
            Bus(r["id"], r["vmin"], r["vmax"], bool(r["is_pcc"]), bus_pf.get(r["id"], 0.85))
            for r in sorted(tables.buses, key=lambda r: r["id"])
        ),
        lines=tuple(
            Line(r["from"], r["to"], impedance(r["r"]), impedance(r["x"]), power(r["smax"]))
            for r in tables.lines
        ),
        base_mva=float(man["base_mva"]),
        base_kv=float(man["base_kv"]),
    )

    pv_by_pros: dict[str, list[PvUnit]] = {}
    for i, r in enumerate(tables.pv, start=2):
        forecast = _finite(r["p_peak"] * pv_cf, f"pv.csv:{i}: p_peak times pv_cf")
        pv_by_pros.setdefault(r["prosumer"], []).append(
            PvUnit(p_forecast=power(forecast), s_inv=power(r["s_inv"]), pf=r["pf"])
        )
    st_by_pros: dict[str, list[StorageDevice]] = {}
    for r in tables.storage:
        st_by_pros.setdefault(r["prosumer"], []).append(
            StorageDevice(
                name=r["name"],
                eta_ch=r["eta_ch"],
                eta_dch=r["eta_dch"],
                window=(r["t_arrive"], r["t_depart"]),
                throughput_cost=price(r["throughput_cost"]),
                **{key: power(r[key])
                   for key in ("p_ch_max", "p_dch_max", "e0", "soc_min", "soc_max", "e_trip")},
            )
        )

    prosumers: list[Prosumer] = []
    background: dict[int, np.ndarray] = {}
    fl_rows_by_pros: dict[str, list[dict]] = {}
    for r in tables.fl:
        fl_rows_by_pros.setdefault(r["prosumer"], []).append(r)
    for i, r in sorted(enumerate(tables.prosumers, start=2), key=lambda ir: ir[1]["id"]):
        baseline = _finite(
            r["peak_load"] * load_scale, f"prosumers.csv:{i}: peak_load times load_scale"
        )
        if not r["active"]:
            background[r["bus"]] = _finite(
                background.get(r["bus"], np.zeros(T)) + baseline,
                f"prosumers.csv:{i}: the background load of bus {r['bus']}",
            )
            continue
        # a peak load near the float limit overflows the day's energy to an
        # infinite floor, which FlexibleLoad rejects
        day = float(np.sum(baseline))
        fls = tuple(
            FlexibleLoad(
                p_fl_max=power(fr["max_frac"] * baseline),
                t_max=fr["t_max"],
                e_min=power(fr["e_min_frac"] * day * float(man["dt"])),
                discomfort_cost=price(fr["discomfort_cost"]),
            )
            for fr in fl_rows_by_pros.get(r["id"], [])
        )
        prosumers.append(
            Prosumer(
                id=r["id"],
                bus_id=r["bus"],
                baseline_load=power(baseline),
                pvs=tuple(pv_by_pros.get(r["id"], [])),
                storages=tuple(st_by_pros.get(r["id"], [])),
                fls=fls,
            )
        )

    admm_kwargs = _keywords(AdmmConfig, man.get("admm", {}), "manifest.json admm")
    scenario = Scenario(
        network=net,
        prosumers=tuple(prosumers),
        horizon=T,
        dt=float(man["dt"]),
        wem_price=wem,
        loss_cost=loss_cost,
        admm=AdmmConfig(**admm_kwargs),
        background={bus: power(load) for bus, load in background.items()},
    )
    rep = validate_network(scenario.network)
    if not rep.ok:
        raise ScenarioFormatError(rep.failures())
    return scenario


def load_scenario(scen_dir: str | Path) -> Scenario:
    """Read, cross-validate and normalize a scenario directory."""
    return assemble_scenario(read_tables(scen_dir))


def bundled_scenario_dir(name: str) -> Path:
    d = Path(__file__).parent / "data" / name
    if not d.exists():
        raise FileNotFoundError(f"no bundled scenario {name!r}")
    return d


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


# the latest hour a generated vehicle plugs in for the evening; its evening
# window runs to the horizon's last hour, so it needs a horizon past this
_EV_LATEST_ARRIVAL = 21


@dataclass(frozen=True)
class GeneratorSpec:
    """Seeded synthetic scenario recipe.

    ``penetration`` is the fraction of load points hosting an aggregated
    prosumer; device probabilities control the fleet mix at hosted points.
    The hosting draw uses one shared uniform per load point, so raising the
    penetration on a fixed seed only ever adds prosumers.  ``horizon`` is at
    least 1 hour, and with vehicles (``p_ev`` > 0) at least 22: an evening
    vehicle arrives as late as hour 21 and stays to the last hour.
    """

    seed: int = 1
    penetration: float = 0.30
    p_pv: float = 1.0
    p_bess: float = 1.0
    p_ev: float = 1.0
    p_fl: float = 1.0
    horizon: int = 24

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon {self.horizon}: must be at least 1 hour")
        if self.p_ev > 0.0 and self.horizon <= _EV_LATEST_ARRIVAL:
            raise ValueError(
                f"horizon {self.horizon}: vehicles (p_ev > 0) arrive as late as hour "
                f"{_EV_LATEST_ARRIVAL}, so the horizon must be at least {_EV_LATEST_ARRIVAL + 1}"
            )
        if not (0.0 <= self.penetration <= 1.0):
            raise ValueError("penetration must lie in [0, 1]")
        for p in (self.p_pv, self.p_bess, self.p_ev, self.p_fl):
            if not (0.0 <= p <= 1.0):
                raise ValueError("device probabilities must lie in [0, 1]")


def _feeder_peak_flows(loads_mw: dict[int, float], loads_mvar: dict[int, float]):
    """Apparent peak flow per line by a backward accumulation with a loss
    uplift; used only to size line capacities in generated tables."""
    ends = sorted({b for f, t, _, _ in IEEE69_LINES for b in (f, t)})
    feeder = orient_feeder(NetworkModel(
        buses=tuple(Bus(b, is_pcc=b == 1) for b in ends),
        # the capacities are what this sizes: any positive one orients the feeder
        lines=tuple(Line(f, t, r, x, 1.0) for f, t, r, x in IEEE69_LINES),
    ))
    flow_p: dict[int, float] = {}
    flow_q: dict[int, float] = {}
    for bus in reversed(feeder.bus_ids):  # children before parents
        p, q = loads_mw.get(bus, 0.0), loads_mvar.get(bus, 0.0)
        for li in feeder.out_lines[bus]:
            child = feeder.oriented[li][1]
            p += flow_p[child]
            q += flow_q[child]
        flow_p[bus], flow_q[bus] = p, q
    return {(f, t): math.hypot(flow_p[t], flow_q[t]) * 1.06  # loss uplift
            for f, t, _, _ in IEEE69_LINES}


def generate_tables(spec: GeneratorSpec) -> ScenarioTables:
    """Draw a synthetic market instance over the 69-bus feeder."""
    host_rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    load_buses = sorted(IEEE69_LOADS_KW)
    host_u = {b: float(u) for b, u in zip(load_buses, host_rng.uniform(size=len(load_buses)))}

    manifest = {
        "name": f"ieee69-seed{spec.seed}-pen{spec.penetration}",
        "base_mva": 10.0,
        "base_kv": 12.66,
        "horizon": spec.horizon,
        "dt": 1.0,
        "units": "si",
        "admm": {},
        "generator": {
            "seed": spec.seed,
            "penetration": spec.penetration,
            "device_mix": [spec.p_pv, spec.p_bess, spec.p_ev, spec.p_fl],
        },
    }
    buses = [
        {
            "id": b,
            "vmin": 1.0 if b == 1 else 0.89,
            "vmax": 1.0 if b == 1 else 1.06,
            "is_pcc": b == 1,
        }
        for b in sorted({1} | {f for f, *_ in IEEE69_LINES} | {t for _, t, *_ in IEEE69_LINES})
    ]
    loads_mw = {b: kw / 1000.0 for b, (kw, _) in IEEE69_LOADS_KW.items()}
    loads_mvar = {b: kvar / 1000.0 for b, (_, kvar) in IEEE69_LOADS_KW.items()}
    peak_flow = _feeder_peak_flows(loads_mw, loads_mvar)
    lines = [
        {
            "from": f,
            "to": t,
            "r": r,
            "x": x,
            "smax": max(2.5 * peak_flow[(f, t)], 0.05),
        }
        for f, t, r, x in IEEE69_LINES
    ]

    prosumers, pv_rows, st_rows, fl_rows = [], [], [], []
    for b in load_buses:
        peak = loads_mw[b]
        pf = IEEE69_LOADS_KW[b][0] / math.hypot(*IEEE69_LOADS_KW[b]) if IEEE69_LOADS_KW[b][1] else 1.0
        hosted = host_u[b] < spec.penetration
        if not hosted:
            prosumers.append({"id": f"bg{b}", "bus": b, "peak_load": peak, "pf": pf, "active": 0})
            continue
        # hosted point: the aggregator takes the whole point; its own draws
        # come from a per-bus substream so fleets are stable across
        # penetration levels on the same seed
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(b,)))
        pid = f"agg{b}"
        prosumers.append({"id": pid, "bus": b, "peak_load": peak, "pf": pf, "active": 1})
        u_pv, u_bess, u_ev, u_fl = rng.uniform(size=4)
        if u_pv < spec.p_pv:
            p_peak = peak * float(rng.uniform(0.5, 0.9))
            pv_rows.append({"prosumer": pid, "s_inv": p_peak, "pf": 0.95, "p_peak": p_peak})
        if u_bess < spec.p_bess:
            cap = peak * float(rng.uniform(0.8, 1.2))
            st_rows.append(
                {
                    "prosumer": pid, "name": "bess", "p_ch_max": 0.15 * peak,
                    "p_dch_max": 0.15 * peak, "eta_ch": 0.95, "eta_dch": 0.95,
                    "e0": 0.5 * cap, "soc_min": 0.1 * cap, "soc_max": cap,
                    "t_arrive": 0, "t_depart": spec.horizon - 1,
                    "e_trip": 0.5 * cap, "throughput_cost": 1.0,
                }
            )
        if u_ev < spec.p_ev:
            cap = peak * float(rng.uniform(1.6, 2.0))
            depart = int(np.clip(round(rng.normal(7.0, 1.0)), 5, 9))
            arrive = int(np.clip(round(rng.normal(18.0, 2.0)), 15, _EV_LATEST_ARRIVAL))
            # overnight plug-in split at midnight: a charge-only morning
            # segment that must be trip-ready at departure, and an evening
            # segment that may support the peak from what the trip left over
            st_rows.append(
                {
                    "prosumer": pid, "name": "ev_am", "p_ch_max": 0.4 * peak,
                    "p_dch_max": 0.0, "eta_ch": 0.95, "eta_dch": 0.95,
                    "e0": 0.2 * cap, "soc_min": 0.05 * cap, "soc_max": cap,
                    "t_arrive": 0, "t_depart": depart,
                    "e_trip": 0.2 * cap + 0.9 * peak, "throughput_cost": 1.0,
                }
            )
            st_rows.append(
                {
                    "prosumer": pid, "name": "ev_pm", "p_ch_max": 0.35 * peak,
                    "p_dch_max": 0.35 * peak, "eta_ch": 0.95, "eta_dch": 0.95,
                    "e0": 0.35 * cap, "soc_min": 0.05 * cap, "soc_max": cap,
                    "t_arrive": arrive, "t_depart": spec.horizon - 1,
                    "e_trip": 0.05 * cap, "throughput_cost": 1.0,
                }
            )
        if u_fl < spec.p_fl:
            fl_rows.append(
                {
                    "prosumer": pid, "max_frac": 0.05, "t_max": 6,
                    "e_min_frac": 0.95, "discomfort_cost": 5.0,
                }
            )
    profiles = [
        {
            "t": t,
            "wem_price": WEM_PRICE_24[t % 24],
            "loss_cost": LOSS_COST_24[t % 24],
            "load_scale": LOAD_SCALE_24[t % 24],
            "pv_cf": PV_CF_24[t % 24],
        }
        for t in range(spec.horizon)
    ]
    return ScenarioTables(
        manifest=manifest,
        buses=buses,
        lines=lines,
        prosumers=prosumers,
        pv=pv_rows,
        storage=st_rows,
        fl=fl_rows,
        profiles=profiles,
    )


def generate_scenario(spec: GeneratorSpec) -> Scenario:
    return assemble_scenario(generate_tables(spec))


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------


def emit_results(result: ClearingResult, out_dir: str | Path, scenario: Scenario) -> None:
    """Write dlmp.csv, schedules.csv, trace.csv and summary.json.

    Emission is a pure function of the result: re-emitting the same result
    produces byte-identical files.  Prices convert from internal per-unit
    energy to currency/MWh using the scenario power base.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = scenario.network.base_mva

    with open(out / "dlmp.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bus", "t", "price_per_mwh"])
        for bus_id in sorted(result.dlmp):
            for t in range(scenario.horizon):
                w.writerow([bus_id, t, repr(float(result.dlmp[bus_id][t]) / base)])

    with open(out / "schedules.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["prosumer", "device", "field", "t", "value"])

        def rows(pid, device, fieldname, arr):
            for t, v in enumerate(arr):
                w.writerow([pid, device, fieldname, t, repr(float(v))])

        for pid in sorted(result.schedules):
            s = result.schedules[pid]
            rows(pid, "net", "p_net", s.p_net)
            for u, (ppv, qpv) in enumerate(zip(s.p_pv, s.q_pv)):
                rows(pid, f"pv{u}", "p_pv", ppv)
                rows(pid, f"pv{u}", "q_pv", qpv)
            for st in s.storages:
                rows(pid, st.name, "p_ch", st.p_ch)
                rows(pid, st.name, "p_dch", st.p_dch)
                rows(pid, st.name, "soc", st.soc)
            for li, f in enumerate(s.fls):
                rows(pid, f"fl{li}", "p_fl", f.p_fl)
                rows(pid, f"fl{li}", "y_fl", f.y_fl)

    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "outer", "inner", "residual_dual", "residual_consensus",
                    "objective", "millis"])
        events = [("outer", r.k, 0, r.dual_step, r.consensus_residual,
                   r.prosumer_objective, r.millis) for r in result.trace.outer]
        events += [("inner", r.k, r.k_inner, r.loss_dual_step, r.loss_residual,
                    r.dso_objective, r.millis) for r in result.trace.inner]
        for ev in sorted(events, key=lambda e: (e[1], e[2], e[0] == "outer")):
            w.writerow([ev[0], ev[1], ev[2], repr(ev[3]), repr(ev[4]), repr(ev[5]),
                        repr(ev[6])])

    summary = {
        "status": result.status,
        "outer_iterations": result.outer_iterations,
        "inner_iterations_per_outer": result.inner_iterations_per_outer,
        "costs": {
            "lmo": result.costs["lmo"],
            "dso": result.costs["dso"],
            "prosumers": dict(sorted(result.costs["prosumers"].items())),
            "prosumers_avg": result.costs["prosumers_avg"],
        },
        "trace_digest": result.trace.digest(),
    }
    _write_json(out / "summary.json", summary)
    if result.trace.messages:
        with open(out / "messages.jsonl", "w", encoding="utf-8") as fh:
            for msg in result.trace.messages:
                fh.write(json.dumps(msg, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lemclear", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a scenario directory")
    v.add_argument("--scenario", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scenario")
    g.add_argument("--spec", required=True, help="JSON file with GeneratorSpec fields")
    g.add_argument("--out", required=True)

    c = sub.add_parser("clear", help="clear the market")
    c.add_argument("--scenario", required=True)
    c.add_argument("--mode", choices=["distributed", "centralized", "selfish"],
                   default="distributed")
    c.add_argument("--out", required=True)
    c.add_argument("--rho", type=float, default=None)
    c.add_argument("--rho-prime", type=float, default=None)
    c.add_argument("--eps1", type=float, default=None)
    c.add_argument("--eps2", type=float, default=None)
    c.add_argument("--max-outer", type=int, default=None)
    c.add_argument("--max-inner", type=int, default=None)
    c.add_argument("--prosumer-solver", choices=["exact", "relax-repair"],
                   default="exact")
    c.add_argument("--log-messages", action="store_true")
    return ap


def _override_admm(scenario: Scenario, args) -> Scenario:
    fields = {
        "rho": args.rho, "rho_prime": args.rho_prime,
        "eps1": args.eps1, "eps2": args.eps2,
        "max_outer": args.max_outer, "max_inner": args.max_inner,
    }
    overrides = {k: v for k, v in fields.items() if v is not None}
    return replace(scenario, admm=replace(scenario.admm, **overrides))


def _failed(args, code: int, message: str, payload: dict) -> int:
    """Report a clearing that could not finish: stderr plus a summary.json."""
    print(message, file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", {**payload, "mode": args.mode})
    return code


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; exit 0 on success, 1 on nonconvergence, 2 on input error,
    3 when the network program of some hour is infeasible, 4 when a prosumer
    or the centralized program cannot be solved."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "validate":
            load_scenario(args.scenario)
            print(f"scenario {args.scenario}: OK")
            return 0

        # generate and clear write to --out, which is checked before any work
        out = Path(args.out)
        if out.exists() and not out.is_dir():
            raise ValueError(f"--out {out}: not a directory")

        if args.command == "generate":
            if not Path(args.spec).is_file():
                raise ScenarioFormatError([_no_file(Path(args.spec))])
            spec_data = _read(Path(args.spec), json.loads)
            spec = GeneratorSpec(**_keywords(GeneratorSpec, spec_data, args.spec))
            tables = generate_tables(spec)
            write_tables(tables, out)
            print(f"wrote scenario to {out}")
            return 0

        if args.command == "clear":
            scenario = _override_admm(load_scenario(args.scenario), args)
            solver = args.prosumer_solver.replace("-", "_")
            if args.mode == "distributed":
                result = run_clearing(
                    scenario,
                    prosumer_solver=solver,
                    log_messages=args.log_messages,
                )
                emit_results(result, out, scenario)
                print(
                    f"status={result.status} outer={result.outer_iterations} "
                    f"lmo={result.costs['lmo']:.4f} dso={result.costs['dso']:.6f}"
                )
                return 0 if result.status == "converged" else 1
            out.mkdir(parents=True, exist_ok=True)
            if args.mode == "centralized":
                res = solve_centralized(scenario)
            else:
                res = solve_selfish(
                    scenario,
                    prosumer_solver=solver,
                )
            payload = {
                "mode": res.mode,
                "objective": res.objective,
                "costs": {
                    "lmo": res.costs["lmo"],
                    "dso": res.costs["dso"],
                    "prosumers": dict(sorted(res.costs["prosumers"].items())),
                },
                "violations": res.violations,
                "assumptions": res.meta,
            }
            _write_json(out / "summary.json", payload)
            print(f"mode={res.mode} objective={res.objective:.4f}")
            return 0
    except DsoInfeasible as exc:
        return _failed(args, 3, f"infeasible: {exc}",
                       {"status": "infeasible", "hour": exc.hour, "diagnosis": exc.detail})
    except SolveFailed as exc:
        return _failed(args, 4, f"solve failed: {exc}",
                       {"status": "solve_failed", "agent": exc.agent, "solver_status": exc.status})
    except (ScenarioFormatError, ValueError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
