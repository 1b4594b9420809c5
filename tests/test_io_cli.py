import csv
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lemclear import io_cli
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
from certify import uncertify_hour


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

    def test_bundled_ieee69_is_the_seed_1_recipe(self, tmp_path):
        # scripts/make_fixtures.py writes the bundled feeder from this recipe;
        # its line capacities come from the generator's walk of the feeder
        write_tables(generate_tables(GeneratorSpec(seed=1, penetration=0.3)), tmp_path)
        bundled = bundled_scenario_dir("ieee69")
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            f.name for f in bundled.iterdir())
        for f in sorted(bundled.iterdir()):
            assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name

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

    @pytest.mark.parametrize("spec_data, named", [
        # vehicles are on by default, and the latest arrives at hour 21
        ({"seed": 1, "horizon": 4}, "horizon 4"),
        ({"seed": 1, "penetration": 1.0, "horizon": 21}, "horizon 21"),
        ({"horizon": 0}, "horizon 0"),
        ({"horizon": 0, "p_ev": 0.0}, "horizon 0"),
    ])
    def test_horizon_the_generator_cannot_fill_exits_2(self, tmp_path, capsys, spec_data, named):
        # rejected before anything is written, not written and then
        # rejected by validate
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_data))
        out = tmp_path / "scen"
        assert cli_main(["generate", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and named in err
        assert not out.exists()

    def test_shortest_horizon_with_vehicles_validates(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "penetration": 1.0, "horizon": 22}))
        out = tmp_path / "scen"
        assert cli_main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert cli_main(["validate", "--scenario", str(out)]) == 0
        sc = load_scenario(out)
        assert sc.horizon == 22
        assert any(dev.name == "ev_pm" for p in sc.prosumers for dev in p.storages)

    @pytest.mark.parametrize("spec_data, named", [
        ({"seed": 7, "penetration": 0.6, "colour": 1}, "'colour'"),
        ({"seed": 7, "penetration": "0.6"}, "'penetration'"),
        ([{"seed": 7, "penetration": 0.6}], "JSON object"),
        # the generator has one feeder, so its template is no setting
        ({"seed": 7, "template": "ieee69"}, "unknown key 'template'"),
    ])
    def test_bad_spec_file_exits_2(self, tmp_path, capsys, spec_data, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_data))
        assert cli_main(["generate", "--spec", str(spec), "--out", str(tmp_path / "scen")]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and named in err

    def test_unknown_admm_key_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        manifest["admm"] = {"rhoo": 1}
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "'rhoo'" in err

    @pytest.mark.parametrize("key, value, named", [
        ("horizon", None, "'horizon' must be int"),
        ("horizon", 2.5, "'horizon' must be int"),
        ("dt", None, "'dt' must be float"),
        ("base_mva", None, "'base_mva' must be float"),
        ("base_kv", None, "'base_kv' must be float"),
        ("dt", float("nan"), "'dt' must be finite"),
        ("base_mva", float("inf"), "'base_mva' must be finite"),
        ("base_kv", -float("inf"), "'base_kv' must be finite"),
        # an integer past the float range, which float() cannot convert
        ("base_mva", 10**400, "'base_mva' must be finite"),
        ("dt", -10**400, "'dt' must be finite"),
        ("units", 1, "'units' must be str"),
        ("units", "kW", "'units' must be 'si' or 'per_unit', got 'kW'"),
        ("base_mva", 0, "'base_mva' must be positive, got 0"),
        ("base_kv", -12.66, "'base_kv' must be positive, got -12.66"),
    ])
    def test_bad_manifest_setting_exits_2(self, tmp_path, capsys, key, value, named):
        # json.loads reads null, NaN and Infinity as None, nan and inf
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        manifest[key] = value
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"manifest.json: {named}" in err

    @pytest.mark.parametrize("table, column", [
        ("buses", "vmax"), ("lines", "r"), ("prosumers", "peak_load"), ("pv", "p_peak"),
        ("storage", "p_ch_max"), ("fl", "max_frac"), ("profiles", "load_scale"),
    ])
    @pytest.mark.parametrize("cell", [None, "nan", "inf", "-inf"])
    def test_bad_cell_exits_2(self, tmp_path, capsys, table, column, cell):
        # the first data row of a table cut short (cell None), or with a
        # number that float() reads but that is not finite
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        path = scen / f"{table}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if cell is None:
            rows[1] = rows[1][:-1]
        else:
            rows[1][rows[0].index(column)] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "malformed value" in err and f"{table}.csv:2" in err

    @pytest.mark.parametrize("table, line, edit, named", [
        # a second row for p6, which the scenario would otherwise drop
        ("prosumers", 7, lambda rows: rows + ["p6,6,0.1,0.85,1"], "repeated prosumer id 'p6'"),
        # a cell past the last column, as a shifted row would leave
        ("lines", 2, lambda rows: [rows[0], rows[1] + ",7"] + rows[2:], "1 surplus cell(s)"),
        # two rows for hour 0 and none for hour 1
        ("profiles", 3, lambda rows: rows[:2] + ["0" + rows[2][1:]] + rows[3:], "hour 0"),
        ("profiles", 25, lambda rows: rows[:-1] + ["24" + rows[-1][2:]], "hour 24"),
    ], ids=["repeated id", "surplus cell", "repeated hour", "hour past the horizon"])
    def test_inconsistent_table_exits_2(self, tmp_path, capsys, table, line, edit, named):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        path = scen / f"{table}.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and named in err and f"{table}.csv:{line}" in err

    @pytest.mark.parametrize("key", ["rho", "rho_prime", "eps1", "eps2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_admm_setting_in_manifest_exits_2(self, tmp_path, capsys, key, value):
        # json.loads reads NaN and Infinity, so they reach AdmmConfig
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        manifest["admm"] = {key: value}
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"ADMM setting {key} must be finite" in err

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_admm_setting_past_the_float_range_exits_2(self, tmp_path, capsys, value):
        # an integer past the float range, which float() cannot convert
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        manifest["admm"] = {"rho": value}
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "ADMM setting rho must be finite" in err

    @pytest.mark.parametrize("edits, named", [
        # bg2 is passive: its baseline, then its bus's background sum
        ({"prosumers": {2: {"peak_load": "1e308"}}, "profiles": {2: {"load_scale": "10"}}},
         "prosumers.csv:2: peak_load times load_scale"),
        ({"prosumers": {5: {"peak_load": "1e308"}}, "profiles": {2: {"load_scale": "10"}}},
         "prosumers.csv:5: peak_load times load_scale"),
        ({"prosumers": {2: {"peak_load": "1.5e308"}, 7: {"id": "bg2b", "bus": "2",
                                                         "peak_load": "1.5e308"}}},
         "prosumers.csv:7: the background load of bus 2"),
        ({"pv": {2: {"p_peak": "1e308"}}, "profiles": {14: {"pv_cf": "10"}}},
         "pv.csv:2: p_peak times pv_cf"),
    ], ids=["passive baseline", "active baseline", "background sum", "pv forecast"])
    def test_series_past_the_float_range_exits_2(self, tmp_path, capsys, edits, named):
        # finite cells whose product or sum overflows: the row is named
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        for table, rows in edits.items():
            path = scen / f"{table}.csv"
            with open(path, newline="") as fh:
                lines = list(csv.DictReader(fh))
            for line, cells in rows.items():
                if line - 2 == len(lines):
                    lines.append(dict(lines[0]))
                lines[line - 2].update(cells)
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(lines[0]))
                writer.writeheader()
                writer.writerows(lines)
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"{named} leaves the float range" in err

    @pytest.mark.parametrize("key", ["lambda_p_init", "lambda_loss_init"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_removed_admm_setting_in_manifest_exits_2(self, tmp_path, capsys, key, value):
        # the multipliers start at 0: a manifest that still sets a start,
        # even the old default 0, names a key that no longer exists
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        manifest["admm"] = {key: value}
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"unknown key {key!r}" in err

    @pytest.mark.parametrize("value", [5, None, True, "six_bus", [1, 2]])
    def test_manifest_not_an_object_exits_2(self, tmp_path, capsys, value):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        (scen / "manifest.json").write_text(json.dumps(value))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "manifest.json: expected a JSON object" in err

    @pytest.mark.parametrize("name", ["manifest.json", "buses.csv"])
    def test_directory_in_place_of_file_exits_2(self, tmp_path, capsys, name):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        (scen / name).unlink()
        (scen / name).mkdir()
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"{scen / name} is not a file" in err

    @pytest.mark.parametrize("name, data, named", [
        ("manifest.json", b'{"horizon": 24,', "Expecting property name"),
        ("manifest.json", b'{"horizon": 24}\xff', "'utf-8' codec can't decode byte 0xff"),
        ("lines.csv", b"from,to,r,x,smax\n1,2,0.004,0.008,1.0\xff\n", "can't decode byte 0xff"),
        ("spec.json", b"seed = 4\n", "Expecting value"),
    ])
    def test_undecodable_file_named_exits_2(self, tmp_path, capsys, name, data, named):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        path = (tmp_path if name == "spec.json" else scen) / name
        path.write_bytes(data)
        argv = (["generate", "--spec", str(path), "--out", str(tmp_path / "out")]
                if name == "spec.json" else ["validate", "--scenario", str(scen)])
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err and named in err

    @pytest.mark.parametrize("key, value", [
        ("base_kv", 1e200),    # base_kv**2 overflows
        ("base_kv", 1e-200),   # base_kv**2 / base_mva is 0
        ("base_kv", 2e-154),   # a finite impedance factor, 2.5e308, takes r past the range
        ("base_mva", 1e-320),  # 1 / base_mva overflows
        ("base_mva", 1e-308),  # line capacities past the range
        ("base_mva", 1e307),   # prices past the range
    ])
    def test_si_base_past_float_range_exits_2(self, tmp_path, capsys, key, value):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("ieee69"), scen)
        manifest = json.loads((scen / "manifest.json").read_text())
        assert manifest["units"] == "si"
        manifest[key] = value
        (scen / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert f"input error: manifest.json: {key!r} {value!r} takes per-unit values" in err

    def test_spec_is_a_directory_exits_2(self, tmp_path, capsys):
        assert cli_main(["generate", "--spec", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"{tmp_path} is not a file" in err

    @pytest.mark.parametrize("command", ["clear", "generate"])
    def test_out_is_an_existing_file_exits_2(self, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "out"
        out.write_text("kept\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 4}))
        # the out path is checked before any work is done
        monkeypatch.setattr(io_cli, "run_clearing", None)
        monkeypatch.setattr(io_cli, "generate_tables", None)
        source = (["--scenario", str(bundled_scenario_dir("six_bus"))] if command == "clear"
                  else ["--spec", str(spec)])
        assert cli_main([command, *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"--out {out}: not a directory" in err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("table, header, cell, named", [
        # bus power factors come from prosumers.csv only
        ("buses", "pf", "0.9", "unknown column 'pf'"),
        # a second r column, whose cell would win
        ("lines", "r", "0.5", "repeated column 'r'"),
    ])
    def test_unknown_or_repeated_column_exits_2(self, tmp_path, capsys, table, header, cell,
                                                named):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        path = scen / f"{table}.csv"
        rows = path.read_text().splitlines()
        rows = [rows[0] + "," + header] + [row + "," + cell for row in rows[1:]]
        path.write_text("\n".join(rows) + "\n")
        assert cli_main(["validate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"{table}.csv: {named}" in err

    @pytest.mark.parametrize("flag", ["--rho", "--rho-prime", "--eps1", "--eps2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_admm_flag_exits_2(self, tmp_path, capsys, flag, value):
        rc = cli_main([
            "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
            "--out", str(tmp_path / "out"), f"{flag}={value}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "input error" in err and "must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "clear"])
    def test_bad_background_power_factor_exits_2(self, tmp_path, capsys, command):
        # a passive row's power factor only enters its bus's mean, which
        # would carry it into the network program as a NaN reactive load
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        rows = (scen / "prosumers.csv").read_text().splitlines()
        assert rows[2].startswith("bg3,")
        rows[2] = "bg3,3,0.06,1.5,0"
        (scen / "prosumers.csv").write_text("\n".join(rows) + "\n")
        argv = [command, "--scenario", str(scen)]
        if command == "clear":
            argv += ["--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "prosumers.csv:3" in err

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


    def test_uncertified_network_hour_exits_4(self, tmp_path, capsys, monkeypatch):
        # a network hour that ends without a certificate is a failed solve
        uncertify_hour(monkeypatch, 1)
        rc = cli_main([
            "clear", "--scenario", str(bundled_scenario_dir("six_bus")),
            "--mode", "distributed", "--out", str(tmp_path / "out"),
            "--prosumer-solver", "relax-repair",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "solve failed" in err and "Traceback" not in err
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["status"] == "solve_failed"
        assert data["agent"] == "network hour 1"
        assert data["solver_status"] == "iter_limit"

    def test_unsolvable_centralized_exits_4(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        shutil.copytree(bundled_scenario_dir("six_bus"), scen)
        lines = (scen / "lines.csv").read_text().splitlines()
        head = lines[1].split(",")
        lines[1] = ",".join(head[:4] + ["0.001"])  # the feeder head can carry no load
        (scen / "lines.csv").write_text("\n".join(lines) + "\n")
        rc = cli_main([
            "clear", "--scenario", str(scen), "--mode", "centralized",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "solve failed" in err and "Traceback" not in err
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["status"] == "solve_failed"
        assert data["mode"] == "centralized"
        assert data["agent"] == "centralized program"
        assert data["solver_status"] != "optimal"


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


# the fuzz edits one of these: six_bus is per unit, ieee69 is in SI units
BASES = {name: bundled_scenario_dir(name) for name in ("six_bus", "ieee69")}
BASE_TABLES = {
    name: {
        path.name: list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        for path in sorted(base.glob("*.csv"))
    }
    for name, base in BASES.items()
}
# what a fuzzed cell or header holds: any text, or text that reads as a number
CELLS = st.text() | st.integers().map(str) | st.floats().map(repr)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def loader_edits(draw):
    """(base, file, where, value): in a copy of the bundled scenario ``base``,
    a manifest replaced (where None) or one of its keys set to a JSON value,
    or a table's cell at (row, column) set to text, row 0 being the header."""
    base = draw(st.sampled_from(sorted(BASES)))
    tables = BASE_TABLES[base]
    name = draw(st.sampled_from(["manifest.json", *tables]))
    if name == "manifest.json":
        manifest = json.loads((BASES[base] / name).read_text())
        return (base, name, draw(st.none() | st.sampled_from(sorted(manifest))),
                draw(JSON_VALUES))
    rows = tables[name]
    row = draw(st.integers(0, len(rows) - 1))
    return base, name, (row, draw(st.integers(0, len(rows[row]) - 1))), draw(CELLS)


@settings(max_examples=50, deadline=None)
@given(edit=loader_edits())
@example(edit=("six_bus", "manifest.json", None, 5))
@example(edit=("ieee69", "manifest.json", "base_kv", 1e200))
@example(edit=("ieee69", "manifest.json", "base_mva", 1e-320))
def test_validate_accepts_or_names_any_edit(edit):
    # a loader that meets bad input with anything but an input error would
    # raise here, or exit 1, the nonconvergence code
    base, name, where, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        scen = Path(tmp) / "scen"
        shutil.copytree(BASES[base], scen)
        path = scen / name
        if name == "manifest.json":
            manifest = json.loads(path.read_text())
            if where is None:
                manifest = value
            else:
                manifest[where] = value
            path.write_text(json.dumps(manifest))
        else:
            rows = [list(row) for row in BASE_TABLES[base][name]]
            rows[where[0]][where[1]] = value
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
        assert cli_main(["validate", "--scenario", str(scen)]) in (0, 2)
