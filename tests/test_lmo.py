import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from lemclear.lmo import (
    LmoState,
    aggregate_to_nodes,
    map_dlmp_to_prosumers,
    solve_subproblem_I,
    update_loss_dual,
    update_power_dual,
)
from lemclear.model import AdmmConfig, Bus, Line, NetworkModel, Scenario
from lemclear.socp import solve_socp
from certify import subproblem_I_objective
from lifted import Free, lifted


def make_state(ids, T, lambda_p=0.0, lambda_loss=0.0, psi=None):
    return LmoState(
        lambda_p={a: np.full(T, lambda_p) for a in ids},
        lambda_loss=np.full(T, lambda_loss),
        p_tilde=None,
        p_loss_tilde=np.zeros(T),
        psi=psi or {a: 2 for a in ids},
    )


class TestSubproblemI:
    def test_zero_signals_give_consensus(self):
        T = 3
        state = make_state(["a"], T)
        cfg = AdmmConfig()
        res = solve_subproblem_I(
            state, np.zeros(T), 1.0, {"a": np.array([1.0, 2, 3])}, np.full(T, 0.5), cfg
        )
        assert np.allclose(res.p_tilde["a"], [1.0, 2, 3])
        assert np.allclose(res.p_loss_tilde, 0.5)

    def test_hand_value_against_grid_search(self):
        # rho=1, dt=1, wem=0.1, lambda_p=0, p*=5: closed form says 4.9
        T = 1
        state = make_state(["a"], T)
        cfg = AdmmConfig(rho=1.0, rho_prime=1.0)
        res = solve_subproblem_I(
            state, np.array([0.1]), 1.0, {"a": np.array([5.0])}, np.zeros(1), cfg
        )
        assert res.p_tilde["a"][0] == pytest.approx(4.9, abs=1e-12)
        # independent 1-D grid search over the coordinator objective
        grid = np.linspace(4.0, 6.0, 200001)
        best = None
        for v in grid:
            val = subproblem_I_objective(
                state, np.array([0.1]), 1.0, {"a": np.array([5.0])}, np.zeros(1),
                cfg, {"a": np.array([v])}, res.p_loss_tilde,
            )
            if best is None or val < best[0]:
                best = (val, v)
        assert best[1] == pytest.approx(4.9, abs=1e-5)

    def test_matches_numerical_solver_on_small_instance(self):
        # 3 prosumers, 2 hours: compare the closed form with a cone-program
        # solve of the same quadratic
        T = 2
        ids = ["a", "b", "c"]
        rng = np.random.default_rng(3)
        state = LmoState(
            lambda_p={a: rng.normal(size=T) for a in ids},
            lambda_loss=rng.normal(size=T),
            p_tilde=None,
            p_loss_tilde=np.zeros(T),
            psi={a: 2 for a in ids},
        )
        cfg = AdmmConfig(rho=2.0, rho_prime=3.0)
        wem = np.array([50.0, 80.0])
        p_star = {a: rng.uniform(0, 1, T) for a in ids}
        pl_star = rng.uniform(0, 0.1, T)
        res = solve_subproblem_I(state, wem, 1.0, p_star, pl_star, cfg)

        # variables: p_tilde (3*T), p_loss_tilde (T); p_ug eliminated
        n = len(ids) * T + T
        c = np.zeros(n)
        q = np.zeros(n)
        c0 = 0.0
        for i, a in enumerate(ids):
            for t in range(T):
                j = i * T + t
                c[j] = wem[t] * 1.0 + state.lambda_p[a][t] - cfg.rho * p_star[a][t]
                q[j] = cfg.rho
                c0 += -state.lambda_p[a][t] * p_star[a][t] + 0.5 * cfg.rho * p_star[a][t] ** 2
        for t in range(T):
            j = len(ids) * T + t
            c[j] = wem[t] * 1.0 + state.lambda_loss[t] - cfg.rho_prime * pl_star[t]
            q[j] = cfg.rho_prime
            c0 += -state.lambda_loss[t] * pl_star[t] + 0.5 * cfg.rho_prime * pl_star[t] ** 2
        prog = lifted(
            c=c, A=sp.csr_matrix((0, n)), b=np.zeros(0), cones=(Free(n),), q=q, c0=c0
        )
        sol = solve_socp(prog, tol=1e-11)
        for i, a in enumerate(ids):
            assert np.allclose(sol.x[i * T : (i + 1) * T], res.p_tilde[a], atol=1e-7)
        assert np.allclose(sol.x[len(ids) * T :], res.p_loss_tilde, atol=1e-7)
        assert sol.obj == pytest.approx(res.objective, rel=1e-7, abs=1e-7)

    def test_balance_reconstruction_exact(self):
        T = 4
        ids = ["a", "b"]
        state = make_state(ids, T, lambda_p=0.3, lambda_loss=-0.2)
        cfg = AdmmConfig(rho=1.7, rho_prime=0.9)
        rng = np.random.default_rng(5)
        p_star = {a: rng.uniform(0, 1, T) for a in ids}
        pl_star = rng.uniform(0, 0.1, T)
        bg = rng.uniform(0, 0.5, T)
        res = solve_subproblem_I(state, np.full(T, 42.0), 0.5, p_star, pl_star, cfg, bg)
        recon = res.p_loss_tilde + bg
        for a in ids:
            recon = recon + res.p_tilde[a]
        assert np.max(np.abs(recon - res.p_ug)) <= 1e-12

    def test_stationarity_of_closed_form(self):
        T = 3
        ids = ["a", "b"]
        state = make_state(ids, T, lambda_p=1.1, lambda_loss=0.4)
        cfg = AdmmConfig(rho=2.5, rho_prime=1.3)
        rng = np.random.default_rng(8)
        p_star = {a: rng.uniform(0, 1, T) for a in ids}
        pl_star = rng.uniform(0, 0.1, T)
        wem = rng.uniform(10, 90, T)
        res = solve_subproblem_I(state, wem, 1.0, p_star, pl_star, cfg)
        # analytic gradient of the coordinator objective at the solution
        for a in ids:
            grad = wem * 1.0 + state.lambda_p[a] + cfg.rho * (res.p_tilde[a] - p_star[a])
            assert np.max(np.abs(grad)) <= 1e-9
        grad_l = wem * 1.0 + state.lambda_loss + cfg.rho_prime * (res.p_loss_tilde - pl_star)
        assert np.max(np.abs(grad_l)) <= 1e-9

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)


def tiny_scenario():
    net = NetworkModel(
        buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1), Bus(5, 0.9, 1.1)),
        lines=(Line(1, 2, 0.01, 0.02, 1.0), Line(2, 5, 0.01, 0.02, 1.0)),
    )
    T = 2
    return Scenario(
        network=net,
        prosumers=(),
        horizon=T,
        dt=1.0,
        wem_price=np.full(T, 10.0),
        loss_cost=np.full(T, 1.0),
        background={2: np.array([0.05, 0.06])},
    )


class TestAggregation:
    def test_singleton(self):
        sc = tiny_scenario()
        out = aggregate_to_nodes({"a": 5}, {"a": np.array([0.2, 0.1])}, sc)
        assert np.allclose(out[5], [0.2, 0.1])
        assert np.allclose(out[2], [0.05, 0.06])  # background only
        assert np.allclose(out[1], 0.0)

    def test_additivity(self):
        sc = tiny_scenario()
        out = aggregate_to_nodes(
            {"a": 5, "b": 5},
            {"a": np.array([0.2, 0.2]), "b": np.array([-0.1, -0.1])},
            sc,
        )
        assert np.allclose(out[5], 0.1)

    def test_permutation_invariance_and_total(self):
        sc = tiny_scenario()
        p = {"a": np.array([0.2, 0.0]), "b": np.array([-0.1, 0.3]), "c": np.array([0.05, 0.05])}
        psi = {"a": 5, "b": 2, "c": 5}
        out1 = aggregate_to_nodes(psi, p, sc)
        out2 = aggregate_to_nodes(psi, dict(reversed(list(p.items()))), sc)
        for n in out1:
            assert np.array_equal(out1[n], out2[n])
        total = sum(out1[n] for n in out1)
        expect = sum(p.values()) + sc.background_at(2)
        assert np.allclose(total, expect, atol=1e-15)

    def test_unmapped_prosumer_rejected(self):
        sc = tiny_scenario()
        with pytest.raises(KeyError):
            aggregate_to_nodes({}, {"a": np.zeros(2)}, sc)


class TestDlmpMapping:
    def test_uniform_price(self):
        state = make_state(["a", "b"], 2, psi={"a": 2, "b": 5})
        prices = map_dlmp_to_prosumers(state.psi, {2: np.full(2, 50.0), 5: np.full(2, 50.0)})
        assert np.allclose(prices["a"], 50.0)
        assert np.allclose(prices["b"], 50.0)

    def test_projection(self):
        state = make_state(["a"], 4, psi={"a": 7})
        dlmp = {7: np.array([0.0, 0, 0, 61.2])}
        assert map_dlmp_to_prosumers(state.psi, dlmp)["a"][3] == 61.2

    def test_missing_bus_price(self):
        state = make_state(["a"], 2, psi={"a": 7})
        with pytest.raises(KeyError):
            map_dlmp_to_prosumers(state.psi, {2: np.zeros(2)})

    def test_round_trip_on_indicators(self):
        sc = tiny_scenario()
        psi = {"a": 2, "b": 5}
        state = make_state(["a", "b"], 2, psi=psi)
        # an indicator injection at one prosumer lands on its bus and its
        # bus's price comes straight back
        out = aggregate_to_nodes(psi, {"a": np.array([1.0, 0]), "b": np.zeros(2)}, sc)
        assert out[2][0] == pytest.approx(1.0 + 0.05)
        prices = map_dlmp_to_prosumers(state.psi, {n: out[n] for n in out})
        assert prices["a"][0] == out[2][0]


class TestDualUpdates:
    def test_power_dual_arithmetic(self):
        state = make_state(["a"], 1, lambda_p=0.0)
        cfg = AdmmConfig(rho=1.0)
        new = update_power_dual(state, {"a": np.array([4.9])}, {"a": np.array([5.0])}, cfg)
        assert new["a"][0] == pytest.approx(-0.1, abs=1e-15)

    def test_consensus_fixed_point(self):
        state = make_state(["a"], 3, lambda_p=2.0)
        cfg = AdmmConfig(rho=1.5)
        p = {"a": np.array([1.0, 2, 3])}
        new = update_power_dual(state, p, p, cfg)
        assert np.array_equal(new["a"], state.lambda_p["a"])

    def test_two_updates_advance_linearly(self):
        cfg = AdmmConfig(rho=2.0)
        state = make_state(["a"], 1, lambda_p=0.0)
        pt, pn = {"a": np.array([1.0])}, {"a": np.array([0.75])}
        one = update_power_dual(state, pt, pn, cfg)
        state.lambda_p = one
        two = update_power_dual(state, pt, pn, cfg)
        assert two["a"][0] == pytest.approx(2 * 2.0 * 0.25, abs=1e-15)

    def test_loss_dual_arithmetic(self):
        state = make_state(["a"], 1, lambda_loss=0.0)
        cfg = AdmmConfig(rho_prime=2.0)
        new = update_loss_dual(state, np.array([0.15]), np.array([0.10]), cfg)
        assert new[0] == pytest.approx(0.1, abs=1e-15)

    def test_loss_dual_zero_residual(self):
        state = make_state(["a"], 2, lambda_loss=0.7)
        cfg = AdmmConfig()
        new = update_loss_dual(state, np.array([0.1, 0.2]), np.array([0.1, 0.2]), cfg)
        assert np.array_equal(new, state.lambda_loss)

    @settings(deadline=None, max_examples=40)
    @given(res=st.floats(min_value=-1.0, max_value=1.0))
    def test_loss_update_sign_matches_residual(self, res):
        state = make_state(["a"], 1, lambda_loss=0.0)
        cfg = AdmmConfig(rho_prime=3.0)
        new = update_loss_dual(state, np.array([res]), np.array([0.0]), cfg)
        assert np.sign(new[0]) == np.sign(res)
