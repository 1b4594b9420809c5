import csv
import json
import shutil

import numpy as np
import pytest

from lemclear.io_cli import (
    GeneratorSpec,
    ScenarioFormatError,
    bundled_scenario_dir,
    cli_main,
    emit_results,
    generate_scenario,
    generate_tables,
    load_scenario,
    read_tables,
    write_tables,
)
from lemclear.market import run_clearing
from lemclear.model import AdmmConfig
from dataclasses import replace


class TestLoadScenario:
    def test_bundled_six_bus_loads(self):
        sc = load_scenario(bundled_scenario_dir("six_bus"))
        assert len(sc.network.buses) == 6
        assert len(sc.prosumers) == 2
        assert sc.horizon == 24

    def test_bundled_69_bus_counts(self):
        sc = load_scenario(bundled_scenario_dir("ieee69"))
        assert len(sc.network.buses) == 69
        assert len(sc.network.lines) == 68
        assert sc.horizon == 24

    def test_unknown_bus_reported_with_location(self, tmp_path):
        tables = read_tables(bundled_scenario_dir("six_bus"))
        tables.lines[2] = dict(tables.lines[2])
        tables.lines[2]["to"] = 99
        write_tables(tables, tmp_path)
        with pytest.raises(ScenarioFormatError, match=r"unknown bus 99 at lines.csv:4"):
            load_scenario(tmp_path)

    def test_missing_file_reported(self, tmp_path):
        tables = read_tables(bundled_scenario_dir("six_bus"))
        write_tables(tables, tmp_path)
        (tmp_path / "pv.csv").unlink()
        with pytest.raises(ScenarioFormatError, match="missing file"):
            load_scenario(tmp_path)

    def test_malformed_row_reported_with_line(self, tmp_path):
        tables = read_tables(bundled_scenario_dir("six_bus"))
        write_tables(tables, tmp_path)
        rows = (tmp_path / "buses.csv").read_text().splitlines()
        rows[3] = rows[3].replace(rows[3].split(",")[1], "abc", 1)
        (tmp_path / "buses.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ScenarioFormatError, match=r"buses.csv:4"):
            load_scenario(tmp_path)


class TestGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            write_tables(generate_tables(GeneratorSpec(seed=1)), tmp_path / sub)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_zero_penetration_means_no_prosumers(self):
        sc = generate_scenario(GeneratorSpec(seed=1, penetration=0.0))
        assert len(sc.prosumers) == 0
        res = run_clearing(sc)
        assert res.status == "converged"
        assert np.max(res.p_loss) > 0  # background still flows

    def test_penetration_nesting(self):
        lo = generate_scenario(GeneratorSpec(seed=3, penetration=0.45))
        hi = generate_scenario(GeneratorSpec(seed=3, penetration=0.75))
        lo_buses = {p.bus_id for p in lo.prosumers}
        hi_buses = {p.bus_id for p in hi.prosumers}
        assert lo_buses <= hi_buses
        # shared prosumers carry identical fleets
        lo_by_bus = {p.bus_id: p for p in lo.prosumers}
        hi_by_bus = {p.bus_id: p for p in hi.prosumers}
        for b in lo_buses:
            assert lo_by_bus[b].storages == hi_by_bus[b].storages

    def test_round_trip_identity(self, tmp_path):
        spec = GeneratorSpec(seed=5, penetration=0.4)
        direct = generate_scenario(spec)
        write_tables(generate_tables(spec), tmp_path)
        loaded = load_scenario(tmp_path)
        assert loaded.horizon == direct.horizon
        assert np.array_equal(loaded.wem_price, direct.wem_price)
        assert len(loaded.prosumers) == len(direct.prosumers)
        for a, b in zip(direct.prosumers, loaded.prosumers):
            assert a.id == b.id and a.bus_id == b.bus_id
            assert np.array_equal(a.baseline_load, b.baseline_load)
            assert a.storages == b.storages
            assert len(a.pvs) == len(b.pvs)
            for ua, ub in zip(a.pvs, b.pvs):
                assert np.array_equal(ua.p_forecast, ub.p_forecast)
        for n in direct.background:
            assert np.array_equal(direct.background_at(n), loaded.background_at(n))

    def test_identical_pv_shape_across_units(self):
        sc = generate_scenario(GeneratorSpec(seed=2, penetration=0.6))
        shapes = set()
        for p in sc.prosumers:
            for u in p.pvs:
                peak = float(np.max(u.p_forecast))
                if peak > 0:
                    shapes.add(tuple(np.round(u.p_forecast / peak, 12)))
        assert len(shapes) == 1

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(penetration=1.5)


@pytest.fixture(scope="module")
def small_run():
    sc = load_scenario(bundled_scenario_dir("six_bus"))
    sc = replace(sc, admm=AdmmConfig(eps1=1e-4, eps2=1e-4))
    return sc, run_clearing(sc, prosumer_solver="relax_repair", log_messages=True)


class TestEmitResults:
    def test_files_and_shapes(self, tmp_path, small_run):
        sc, res = small_run
        emit_results(res, tmp_path, sc)
        for name in ("dlmp.csv", "schedules.csv", "trace.csv", "summary.json"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "dlmp.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 24

    def test_summary_costs_match_recomputation(self, tmp_path, small_run):
        sc, res = small_run
        emit_results(res, tmp_path, sc)
        summary = json.loads((tmp_path / "summary.json").read_text())
        # independent recomputation from the emitted schedules file
        by_pros: dict[str, np.ndarray] = {}
        with open(tmp_path / "schedules.csv") as fh:
            for row in csv.DictReader(fh):
                if row["device"] == "net" and row["field"] == "p_net":
                    by_pros.setdefault(row["prosumer"], np.zeros(sc.horizon))[
                        int(row["t"])
                    ] = float(row["value"])
        with open(tmp_path / "dlmp.csv") as fh:
            price = {
                (int(r["bus"]), int(r["t"])): float(r["price_per_mwh"])
                for r in csv.DictReader(fh)
            }
        base = sc.network.base_mva
        for p in sc.prosumers:
            energy_cost = sum(
                by_pros[p.id][t] * price[(p.bus_id, t)] * base * sc.dt
                for t in range(sc.horizon)
            )
            dev = res.schedules[p.id].cost_devices
            assert summary["costs"]["prosumers"][p.id] == pytest.approx(
                energy_cost + dev, rel=1e-6, abs=1e-9
            )

    def test_reemission_byte_identical(self, tmp_path, small_run):
        sc, res = small_run
        emit_results(res, tmp_path / "one", sc)
        emit_results(res, tmp_path / "two", sc)
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_empty_market_schedule_header_only(self, tmp_path):
        sc = generate_scenario(GeneratorSpec(seed=1, penetration=0.0))
        res = run_clearing(sc)
        emit_results(res, tmp_path, sc)
        lines = (tmp_path / "schedules.csv").read_text().splitlines()
        assert len(lines) == 1


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "--scenario", str(bundled_scenario_dir("six_bus"))]) == 0

    def test_validate_bad_dir(self, tmp_path):
        assert cli_main(["validate", "--scenario", str(tmp_path)]) == 2

    def test_generate_and_validate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 4, "penetration": 0.3}))
        out = tmp_path / "scen"
        assert cli_main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert cli_main(["validate", "--scenario", str(out)]) == 0

    def test_clear_distributed_six_bus(self, tmp_path):
        rc = cli_main([
            "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
            "--mode", "distributed", "--out", str(tmp_path / "out"),
            "--prosumer-solver", "relax-repair",
        ])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "dlmp.csv").exists()

    def test_clear_selfish_writes_summary(self, tmp_path):
        rc = cli_main([
            "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
            "--mode", "selfish", "--out", str(tmp_path / "out"),
            "--prosumer-solver", "relax-repair",
        ])
        assert rc == 0
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["mode"] == "selfish"
        assert "assumptions" in data

    def test_negative_eps_exits_2(self, tmp_path, capsys):
        rc = cli_main([
            "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
            "--mode", "distributed", "--out", str(tmp_path / "out"),
            "--eps1", "-1",
        ])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert cli_main(["clear", "--nonsense"]) == 2

    def test_infeasible_feeder_exits_3(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        lines = (scen / "lines.csv").read_text().splitlines()
        head = lines[1].split(",")
        lines[1] = ",".join(head[:4] + ["0.001"])  # the feeder head can carry no load
        (scen / "lines.csv").write_text("\n".join(lines) + "\n")
        rc = cli_main([
            "clear", "--scenario", str(scen), "--mode", "distributed",
            "--out", str(tmp_path / "out"), "--prosumer-solver", "relax-repair",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "infeasible" in err and "Traceback" not in err
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["status"] == "infeasible"
        assert data["hour"] == 0
        assert data["diagnosis"] in err


def test_cli_clear_centralized(tmp_path):
    rc = cli_main([
        "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
        "--mode", "centralized", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert data["mode"] == "centralized"


def test_cli_log_messages_writes_jsonl(tmp_path):
    rc = cli_main([
        "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
        "--mode", "distributed", "--out", str(tmp_path / "out"),
        "--prosumer-solver", "relax-repair", "--log-messages",
    ])
    assert rc == 0
    lines = (tmp_path / "out" / "messages.jsonl").read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"type", "sender", "recipient", "outer", "inner", "payload"}


def test_cli_nonconvergence_exits_1(tmp_path):
    rc = cli_main([
        "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
        "--mode", "distributed", "--out", str(tmp_path / "out"),
        "--prosumer-solver", "relax-repair", "--max-outer", "1",
    ])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "iter_limit"
