import numpy as np
import pytest

from lemclear.dso import DsoInput, solve_dso_subproblem
from lemclear.market import run_clearing
from lemclear.model import (
    AdmmConfig,
    Bus,
    Line,
    NetworkModel,
    Prosumer,
    Scenario,
    StorageDevice,
)
from lemclear.oracle import solve_centralized, solve_selfish

T = 24


def zero_device_scenario():
    net = NetworkModel(
        buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1)),
        lines=(Line(1, 2, 0.01, 0.02, 1.0),),
    )
    prices = np.linspace(20, 90, T)
    return Scenario(
        network=net,
        prosumers=(Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1)),),
        horizon=T, dt=1.0, wem_price=prices, loss_cost=np.full(T, 15.0),
        admm=AdmmConfig(eps1=1e-6, eps2=1e-6),
        bus_pf={2: 0.85},
    )


def storage_scenario():
    sc = zero_device_scenario()
    bess = StorageDevice("bess", 0.03, 0.03, 0.95, 0.95, e0=0.02, soc_min=0.004,
                         soc_max=0.05, window=(0, 23), e_trip=0.02, throughput_cost=2.0)
    pros = Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1), storages=(bess,))
    return Scenario(
        network=sc.network, prosumers=(pros,), horizon=T, dt=1.0,
        wem_price=sc.wem_price, loss_cost=sc.loss_cost, admm=sc.admm,
        bus_pf={2: 0.85},
    )


class TestCentralized:
    def test_zero_device_matches_network_solve_plus_arithmetic(self):
        sc = zero_device_scenario()
        res = solve_centralized(sc)
        # compose the expected objective from a plain minimum-loss network
        # evaluation at the fixed load
        q = 0.1 * np.tan(np.arccos(0.85))
        inp = DsoInput(
            p_net_node={1: np.zeros(T), 2: np.full(T, 0.1)},
            q_net_node={1: np.zeros(T), 2: np.full(T, q)},
            p_loss_tilde=np.zeros(T),
            lambda_loss=np.zeros(T),
        )
        dso = solve_dso_subproblem(sc.network, inp, sc.loss_cost, sc.dt)
        expect = float(np.sum((0.1 + dso.p_loss) * sc.wem_price) * sc.dt)
        expect += float(np.sum(dso.p_loss * sc.loss_cost) * sc.dt)
        assert res.objective == pytest.approx(expect, rel=1e-6)
        assert np.allclose(res.p_loss, dso.p_loss, atol=1e-7)

    def test_lossless_uncongested_prices_equal_wholesale(self):
        sc = zero_device_scenario()
        lossless = Scenario(
            network=NetworkModel(
                buses=sc.network.buses,
                lines=(Line(1, 2, 0.0, 0.02, 1.0),),
            ),
            prosumers=sc.prosumers, horizon=T, dt=1.0,
            wem_price=sc.wem_price, loss_cost=sc.loss_cost, admm=sc.admm,
            bus_pf={2: 0.85},
        )
        res = solve_centralized(lossless)
        for n in (1, 2):
            assert np.allclose(res.dlmp[n], lossless.wem_price, atol=2e-4)

    def test_fixed_binaries_bounded_by_distributed_total(self):
        sc = storage_scenario()
        dist = run_clearing(sc, prosumer_solver="exact")
        cen = solve_centralized(sc, binaries=dist)
        dist_total = dist.costs["lmo"] + dist.costs["dso"] + sum(
            s.cost_devices for s in dist.schedules.values()
        )
        assert cen.objective <= dist_total + 1e-4
        assert cen.meta["binaries"] == "fixed"

    def test_relaxed_is_lower_bound(self):
        sc = storage_scenario()
        dist = run_clearing(sc, prosumer_solver="exact")
        fixed = solve_centralized(sc, binaries=dist)
        relaxed = solve_centralized(sc, binaries="relaxed")
        assert relaxed.objective <= fixed.objective + 1e-7

    def test_bad_binaries_argument(self):
        with pytest.raises(ValueError):
            solve_centralized(zero_device_scenario(), binaries="frozen")


class TestSelfish:
    def test_zero_device_prosumers_identical_injections(self):
        sc = zero_device_scenario()
        res = solve_selfish(sc)
        assert np.allclose(res.schedules["a"].p_net, 0.1, atol=1e-7)
        assert res.violations == []
        assert res.meta["tariff"].startswith("wholesale passthrough")

    def test_storage_responds_to_spread(self):
        sc = storage_scenario()
        res = solve_selfish(sc)
        st_ = res.schedules["a"].storages[0]
        assert float(np.sum(st_.p_ch)) > 1e-4  # arbitrage happens
        # charging concentrates at the cheapest hours (herding)
        assert st_.p_ch[0] > 1e-6
        assert st_.p_ch[20] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("solver", ["exact", "relax_repair", "relax-repair"])
    def test_solver_spellings_accepted(self, solver):
        res = solve_selfish(zero_device_scenario(), prosumer_solver=solver)
        assert np.allclose(res.schedules["a"].p_net, 0.1, atol=1e-7)

    def test_unknown_solver_rejected(self):
        # a misspelling must not fall through to relax-and-repair
        with pytest.raises(ValueError, match="exat"):
            solve_selfish(zero_device_scenario(), prosumer_solver="exat")

    def test_congestion_reported_not_raised(self):
        sc = storage_scenario()
        tight = Scenario(
            network=NetworkModel(
                buses=sc.network.buses,
                lines=(Line(1, 2, 0.01, 0.02, 0.10),),
            ),
            prosumers=sc.prosumers, horizon=T, dt=1.0,
            wem_price=sc.wem_price, loss_cost=sc.loss_cost, admm=sc.admm,
            bus_pf={2: 0.85},
        )
        res = solve_selfish(tight)
        assert res.violations  # loaded hours exceed the 0.10 pu rating
        assert any("capacity" in v or "over capacity" in v for v in res.violations)
        assert res.p_loss is not None


def test_selfish_peak_import_at_least_coordinated():
    sc = storage_scenario()
    dist = run_clearing(sc, prosumer_solver="exact")
    selfish = solve_selfish(sc)
    peak = int(np.argmax(sc.wem_price))
    assert selfish.p_ug[peak] >= dist.p_ug[peak] - 1e-9
