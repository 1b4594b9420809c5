#!/usr/bin/env python3
"""Build the bundled scenario fixtures.

six_bus: handcrafted per-unit feeder (base 1 MVA so prices read as
currency/MWh) with two prosumers exercising every device class; used by the
equivalence and price-validity acceptance checks.

ieee69: generated from the 69-bus template at seed 1, 30% hosting; shipped
as CSV so tests never depend on generator evolution.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lemclear.io_cli import (  # noqa: E402
    LOAD_SCALE_24,
    LOSS_COST_24,
    PV_CF_24,
    WEM_PRICE_24,
    GeneratorSpec,
    ScenarioTables,
    generate_tables,
    load_scenario,
    write_tables,
)

DATA = ROOT / "src" / "lemclear" / "data"


def six_bus_tables() -> ScenarioTables:
    manifest = {
        "name": "six-bus-reference",
        "base_mva": 1.0,
        "base_kv": 12.66,
        "horizon": 24,
        "dt": 1.0,
        "units": "per_unit",
        "admm": {},
    }
    buses = [
        {"id": 1, "vmin": 1.0, "vmax": 1.0, "is_pcc": True},
        {"id": 2, "vmin": 0.90, "vmax": 1.10, "is_pcc": False},
        {"id": 3, "vmin": 0.90, "vmax": 1.10, "is_pcc": False},
        {"id": 4, "vmin": 0.90, "vmax": 1.10, "is_pcc": False},
        {"id": 5, "vmin": 0.90, "vmax": 1.10, "is_pcc": False},
        {"id": 6, "vmin": 0.90, "vmax": 1.10, "is_pcc": False},
    ]
    lines = [
        {"from": 1, "to": 2, "r": 0.004, "x": 0.008, "smax": 1.0},
        {"from": 2, "to": 3, "r": 0.005, "x": 0.010, "smax": 0.6},
        {"from": 3, "to": 4, "r": 0.006, "x": 0.012, "smax": 0.5},
        {"from": 2, "to": 5, "r": 0.008, "x": 0.016, "smax": 0.6},
        {"from": 5, "to": 6, "r": 0.010, "x": 0.020, "smax": 0.5},
    ]
    prosumers = [
        {"id": "bg2", "bus": 2, "peak_load": 0.03, "pf": 0.85, "active": 0},
        {"id": "bg3", "bus": 3, "peak_load": 0.06, "pf": 0.85, "active": 0},
        {"id": "bg5", "bus": 5, "peak_load": 0.09, "pf": 0.85, "active": 0},
        {"id": "p4", "bus": 4, "peak_load": 0.08, "pf": 0.85, "active": 1},
        {"id": "p6", "bus": 6, "peak_load": 0.10, "pf": 0.85, "active": 1},
    ]
    pv = [
        {"prosumer": "p4", "s_inv": 0.05, "pf": 0.95, "p_peak": 0.05},
        {"prosumer": "p6", "s_inv": 0.04, "pf": 0.95, "p_peak": 0.04},
    ]
    storage = [
        {
            "prosumer": "p4", "name": "bess", "p_ch_max": 0.03, "p_dch_max": 0.03,
            "eta_ch": 0.95, "eta_dch": 0.95, "e0": 0.024, "soc_min": 0.006,
            "soc_max": 0.06, "t_arrive": 0, "t_depart": 23, "e_trip": 0.024,
            "throughput_cost": 2.0,
        },
        {
            "prosumer": "p6", "name": "ev_am", "p_ch_max": 0.025, "p_dch_max": 0.025,
            "eta_ch": 0.95, "eta_dch": 0.95, "e0": 0.015, "soc_min": 0.005,
            "soc_max": 0.05, "t_arrive": 0, "t_depart": 7, "e_trip": 0.035,
            "throughput_cost": 1.0,
        },
        {
            "prosumer": "p6", "name": "ev_pm", "p_ch_max": 0.025, "p_dch_max": 0.025,
            "eta_ch": 0.95, "eta_dch": 0.95, "e0": 0.005, "soc_min": 0.005,
            "soc_max": 0.05, "t_arrive": 18, "t_depart": 23, "e_trip": 0.005,
            "throughput_cost": 1.0,
        },
    ]
    fl = [
        {"prosumer": "p4", "max_frac": 0.10, "t_max": 6, "e_min_frac": 0.95,
         "discomfort_cost": 5.0},
    ]
    profiles = [
        {
            "t": t,
            "wem_price": WEM_PRICE_24[t],
            "loss_cost": LOSS_COST_24[t],
            "load_scale": LOAD_SCALE_24[t],
            "pv_cf": PV_CF_24[t],
        }
        for t in range(24)
    ]
    return ScenarioTables(
        manifest=manifest, buses=buses, lines=lines, prosumers=prosumers,
        pv=pv, storage=storage, fl=fl, profiles=profiles,
    )


def main() -> None:
    six = six_bus_tables()
    write_tables(six, DATA / "six_bus")
    sc = load_scenario(DATA / "six_bus")
    print(
        f"six_bus: {len(sc.network.buses)} buses, {len(sc.prosumers)} prosumers, "
        f"background buses {sorted(sc.background)}"
    )

    tables = generate_tables(GeneratorSpec(seed=1, penetration=0.30))
    write_tables(tables, DATA / "ieee69")
    sc69 = load_scenario(DATA / "ieee69")
    n_active = len(sc69.prosumers)
    print(
        f"ieee69: {len(sc69.network.buses)} buses, {len(sc69.network.lines)} lines, "
        f"{n_active} prosumers, horizon {sc69.horizon}"
    )


if __name__ == "__main__":
    main()
