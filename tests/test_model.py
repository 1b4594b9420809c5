import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lemclear.io_cli import (
    ScenarioFormatError,
    ScenarioTables,
    assemble_scenario,
    bundled_scenario_dir,
    load_scenario,
    read_tables,
)
from lemclear.model import Bus, Line, NetworkModel, reactive_from_pf, validate_network


def two_bus(pcc=(True, False), lines=None):
    return NetworkModel(
        buses=(Bus(1, 0.9, 1.1, pcc[0]), Bus(2, 0.9, 1.1, pcc[1])),
        lines=lines if lines is not None else (Line(1, 2, 0.01, 0.02, 1.0),),
    )


class TestValidateNetwork:
    def test_minimal_radial_feeder_passes(self):
        assert validate_network(two_bus()).ok

    def test_triangle_fails_with_cycle(self):
        net = NetworkModel(
            buses=(Bus(1, is_pcc=True), Bus(2), Bus(3)),
            lines=(Line(1, 2, 0.01, 0.02, 1), Line(2, 3, 0.01, 0.02, 1),
                   Line(3, 1, 0.01, 0.02, 1)),
        )
        rep = validate_network(net)
        assert not rep.ok
        assert any("cycle detected" in f for f in rep.failures())

    def test_bundled_69_bus_topology_passes(self):
        sc = load_scenario(bundled_scenario_dir("ieee69"))
        assert len(sc.network.buses) == 69
        assert len(sc.network.lines) == 68
        assert validate_network(sc.network).ok

    def test_missing_pcc_named(self):
        rep = validate_network(two_bus(pcc=(False, False)))
        assert any("missing PCC" in f for f in rep.failures())

    def test_duplicate_pcc_named(self):
        rep = validate_network(two_bus(pcc=(True, True)))
        assert any("multiple PCC" in f for f in rep.failures())

    def test_negative_resistance_named(self):
        rep = validate_network(two_bus(lines=(Line(1, 2, -0.01, 0.02, 1.0),)))
        assert any("negative impedance" in f for f in rep.failures())

    def test_disconnected_bus_named(self):
        net = NetworkModel(
            buses=(Bus(1, is_pcc=True), Bus(2), Bus(3), Bus(4)),
            lines=(Line(1, 2, 0.01, 0.02, 1), Line(3, 4, 0.01, 0.02, 1),
                   Line(1, 3, 0.0, 0.0, 1)),
        )
        # snip bus 2's line into a self-contained pair to break connectivity
        net = NetworkModel(
            buses=net.buses,
            lines=(Line(1, 3, 0.01, 0.02, 1), Line(3, 4, 0.01, 0.02, 1),
                   Line(3, 4, 0.01, 0.02, 1)),
        )
        rep = validate_network(net)
        assert not rep.ok
        assert any("disconnected" in f or "cycle" in f for f in rep.failures())

    def test_seeded_defects_on_bundled_feeder(self):
        sc = load_scenario(bundled_scenario_dir("ieee69"))
        net = sc.network
        cycle = NetworkModel(
            buses=net.buses, lines=net.lines + (Line(5, 27, 0.1, 0.1, 1.0),),
            base_mva=net.base_mva, base_kv=net.base_kv,
        )
        assert any("cycle" in f for f in validate_network(cycle).failures())
        dup = NetworkModel(
            buses=tuple(Bus(b.id, b.vmin, b.vmax, b.is_pcc or b.id == 2) for b in net.buses),
            lines=net.lines, base_mva=net.base_mva, base_kv=net.base_kv,
        )
        assert any("multiple PCC" in f for f in validate_network(dup).failures())
        bad_r = NetworkModel(
            buses=net.buses,
            lines=(Line(net.lines[0].from_bus, net.lines[0].to_bus, -1e-4,
                        net.lines[0].x, net.lines[0].s_max),) + net.lines[1:],
            base_mva=net.base_mva, base_kv=net.base_kv,
        )
        assert any("negative impedance" in f for f in validate_network(bad_r).failures())


def si_tables(**manifest) -> ScenarioTables:
    """A two-bus feeder in SI units on 10 MVA and 12.66 kV bases: one
    0.5 + 1.0j ohm line rated 2 MVA, and a passive load at bus 2 that draws
    0.1, 0.2, 0.3 and 0.4 MW over four hours at 50, 40, 30 and 20 per MWh."""
    return ScenarioTables(
        manifest={"base_mva": 10.0, "base_kv": 12.66, "horizon": 4, "dt": 1.0, "units": "si",
                  **manifest},
        buses=[{"id": 1, "vmin": 1.0, "vmax": 1.0, "is_pcc": 1},
               {"id": 2, "vmin": 0.9, "vmax": 1.1, "is_pcc": 0}],
        lines=[{"from": 1, "to": 2, "r": 0.5, "x": 1.0, "smax": 2.0}],
        prosumers=[{"id": "bg2", "bus": 2, "peak_load": 0.4, "pf": 0.9, "active": 0}],
        pv=[], storage=[], fl=[],
        profiles=[{"t": t, "wem_price": 50.0 - 10.0 * t, "loss_cost": 15.0,
                   "load_scale": 0.25 * (t + 1), "pv_cf": 0.0} for t in range(4)],
    )


class TestPerUnit:
    def test_power_ratio(self):
        sc = assemble_scenario(si_tables())
        # 0.1 MW on a 10 MVA base
        assert sc.background_at(2)[0] == pytest.approx(0.01, abs=1e-15)
        assert sc.network.lines[0].s_max == pytest.approx(0.2, rel=1e-12)

    def test_zero_resistance_stays_zero(self):
        tables = si_tables()
        tables.lines[0]["r"] = 0.0
        assert assemble_scenario(tables).network.lines[0].r == 0.0

    def test_impedance_base(self):
        sc = assemble_scenario(si_tables())
        z_base = 12.66**2 / 10.0
        assert sc.network.lines[0].r == pytest.approx(0.5 / z_base, rel=1e-12)
        assert sc.network.lines[0].r == pytest.approx(0.031196, rel=1e-3)

    def test_price_scaling_keeps_costs_in_currency(self):
        sc = assemble_scenario(si_tables())
        # 50 currency/MWh on a 10 MVA base: one per-unit-hour is 10 MWh
        assert sc.wem_price[0] == pytest.approx(500.0, rel=1e-12)

    def test_idempotent_on_per_unit(self):
        # the same tables flagged per unit are read as they stand
        sc = assemble_scenario(si_tables(units="per_unit"))
        assert sc.background_at(2).tolist() == [0.4 * (0.25 * (t + 1)) for t in range(4)]
        line = sc.network.lines[0]
        assert (line.r, line.x, line.s_max) == (0.5, 1.0, 2.0)
        assert sc.wem_price.tolist() == [50.0, 40.0, 30.0, 20.0]

    def test_nonpositive_base_rejected(self):
        for units in ("si", "per_unit"):
            for key, value in (("base_mva", 0.0), ("base_mva", -10.0), ("base_kv", -0.0)):
                with pytest.raises(ScenarioFormatError,
                                   match=f"manifest.json: '{key}' must be positive"):
                    assemble_scenario(si_tables(units=units, **{key: value}))


class TestReactiveFromPf:
    def test_unity_pf(self):
        assert reactive_from_pf(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_power(self):
        assert reactive_from_pf(0.0, 0.85) == 0.0

    def test_085_lag(self):
        assert reactive_from_pf(1.0, 0.85) == pytest.approx(
            math.tan(math.acos(0.85)), rel=1e-12
        )
        assert reactive_from_pf(1.0, 0.85) == pytest.approx(0.6197, abs=1e-4)

    def test_pf_out_of_range(self):
        with pytest.raises(ValueError):
            reactive_from_pf(1.0, 0.0)
        with pytest.raises(ValueError):
            reactive_from_pf(1.0, 1.5)

    @settings(deadline=None, max_examples=60)
    @given(
        p=st.floats(min_value=1e-6, max_value=1e3),
        pf1=st.floats(min_value=0.05, max_value=1.0),
        pf2=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_monotone_decreasing_in_pf(self, p, pf1, pf2):
        lo, hi = sorted((pf1, pf2))
        if lo == hi:
            return
        assert reactive_from_pf(p, lo) >= reactive_from_pf(p, hi)


def test_bundled_per_unit_values_are_csv_values_times_factors():
    for name in ("six_bus", "ieee69"):
        check_csv_values_times_factors(name)


def check_csv_values_times_factors(name):
    """Each per-unit value of a bundled scenario is its SI value, formed from
    the CSV cells, times one factor; six_bus is per unit, so its factors are 1.0."""
    tables = read_tables(bundled_scenario_dir(name))
    sc = assemble_scenario(tables)
    man = tables.manifest
    if man["units"] == "si":
        p, price = 1.0 / man["base_mva"], man["base_mva"]
        z = 1.0 / (man["base_kv"]**2 / man["base_mva"])
    else:
        p = z = price = 1.0
    prof = sorted(tables.profiles, key=lambda r: r["t"])
    load_scale = np.array([r["load_scale"] for r in prof])
    pv_cf = np.array([r["pv_cf"] for r in prof])
    assert np.array_equal(sc.wem_price, np.array([r["wem_price"] for r in prof]) * price)
    assert np.array_equal(sc.loss_cost, np.array([r["loss_cost"] for r in prof]) * price)
    assert [(l.from_bus, l.to_bus, l.r, l.x, l.s_max) for l in sc.network.lines] == [
        (r["from"], r["to"], r["r"] * z, r["x"] * z, r["smax"] * p) for r in tables.lines
    ]
    background = {}
    for r in sorted(tables.prosumers, key=lambda r: r["id"]):
        if not r["active"]:
            background[r["bus"]] = background.get(r["bus"], np.zeros(sc.horizon)) + (
                r["peak_load"] * load_scale)
    assert sorted(sc.background) == sorted(background)
    for bus, load in background.items():
        assert np.array_equal(sc.background[bus], load * p)
    rows = {r["id"]: r for r in tables.prosumers if r["active"]}
    assert sorted(pr.id for pr in sc.prosumers) == sorted(rows)
    for pr in sc.prosumers:
        baseline = rows[pr.id]["peak_load"] * load_scale
        assert np.array_equal(pr.baseline_load, baseline * p)
        pvs = [r for r in tables.pv if r["prosumer"] == pr.id]
        assert len(pr.pvs) == len(pvs)
        for u, r in zip(pr.pvs, pvs):
            assert np.array_equal(u.p_forecast, (r["p_peak"] * pv_cf) * p)
            assert (u.s_inv, u.pf) == (r["s_inv"] * p, r["pf"])
        storages = [r for r in tables.storage if r["prosumer"] == pr.id]
        assert len(pr.storages) == len(storages)
        for d, r in zip(pr.storages, storages):
            for key in ("p_ch_max", "p_dch_max", "e0", "soc_min", "soc_max", "e_trip"):
                assert getattr(d, key) == r[key] * p
            assert d.throughput_cost == r["throughput_cost"] * price
            assert (d.eta_ch, d.eta_dch, d.window) == (r["eta_ch"], r["eta_dch"],
                                                       (r["t_arrive"], r["t_depart"]))
        fls = [r for r in tables.fl if r["prosumer"] == pr.id]
        assert len(pr.fls) == len(fls)
        for f, r in zip(pr.fls, fls):
            assert np.array_equal(f.p_fl_max, (r["max_frac"] * baseline) * p)
            assert f.e_min == (r["e_min_frac"] * float(np.sum(baseline)) * man["dt"]) * p
            assert f.discomfort_cost == r["discomfort_cost"] * price
    if name == "ieee69":  # the SI scenario has a device of every kind to scale
        assert background and sc.prosumers
        assert all(any(getattr(pr, kind) for pr in sc.prosumers)
                   for kind in ("pvs", "storages", "fls"))
