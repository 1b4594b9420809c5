"""Shared fixtures: bundled scenarios and the expensive clearing runs,
computed once per session and reused by unit and acceptance tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from lemclear.io_cli import bundled_scenario_dir, load_scenario
from lemclear.market import run_clearing
from lemclear.model import AdmmConfig
from lemclear.oracle import solve_selfish


@pytest.fixture(scope="session")
def six_bus():
    sc = load_scenario(bundled_scenario_dir("six_bus"))
    return replace(sc, admm=AdmmConfig(eps1=1e-6, eps2=1e-6))


@pytest.fixture(scope="session")
def six_bus_run(six_bus):
    return run_clearing(six_bus, prosumer_solver="exact", log_messages=True)


@pytest.fixture(scope="session")
def ieee69():
    return load_scenario(bundled_scenario_dir("ieee69"))


@pytest.fixture(scope="session")
def ieee69_run(ieee69):
    return run_clearing(ieee69, prosumer_solver="relax_repair")


@pytest.fixture(scope="session")
def ieee69_selfish(ieee69):
    return solve_selfish(ieee69, prosumer_solver="relax_repair")
