import math

import numpy as np
import pytest

from lemclear.dso import (
    DsoInfeasible,
    DsoInput,
    assemble_branch_flow,
    check_tightness,
    orient_feeder,
    solve_dso_subproblem,
)
from lemclear.io_cli import bundled_scenario_dir, load_scenario
from lemclear.model import Bus, Line, NetworkModel, reactive_from_pf
from lemclear.socp import dual_sensitivity_probe, solve_socp


def two_bus(r=0.01, x=0.02, smax=1.0, vmin=0.9, vmax=1.1):
    return NetworkModel(
        buses=(Bus(1, 1.0, 1.0, True), Bus(2, vmin, vmax)),
        lines=(Line(1, 2, r, x, smax),),
    )


def loadflow_2bus(p_load, q_load, r, x):
    """Independent fixed-point oracle: iterate l <- (p^2 + q^2) / v_from with
    sending-end flows picking up the line loss."""
    l = 0.0
    for _ in range(500):
        pf = p_load + r * l
        qf = q_load + x * l
        l_new = (pf * pf + qf * qf) / 1.0
        if abs(l_new - l) < 1e-16:
            l = l_new
            break
        l = l_new
    v_child = 1.0 - 2 * (r * pf + x * qf) + l * (r * r + x * x)
    return l, r * l, v_child


P2, Q2 = 0.1, reactive_from_pf(0.1, 0.85)


def one_hour_input(p, q):
    return DsoInput(
        p_net_node={1: np.zeros(1), 2: np.array([p])},
        q_net_node={1: np.zeros(1), 2: np.array([q])},
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )


class TestAssembly:
    def test_zero_impedance_reduces_to_balance(self):
        net = two_bus(r=0.0, x=0.0)
        out = solve_dso_subproblem(net, one_hour_input(P2, Q2), np.array([10.0]), 1.0)
        assert out.p_loss[0] == pytest.approx(0.0, abs=1e-9)
        assert out.flows[0]["p"][0] == pytest.approx(P2, abs=1e-7)

    def test_counts_two_bus(self):
        # variables p, q, l per line, v per bus, p_ug, q_ug, p_loss; rows:
        # two balances per bus, a voltage drop per line, loss, reference
        # voltage; cone rows: two voltage bounds per non-PCC bus, 4 + 3 per line
        bf = assemble_branch_flow(two_bus(), {2: P2}, {2: Q2}, loss_price=10.0)
        assert bf.prog.n_vars == 3 * 1 + 2 + 3
        assert bf.prog.n_eq == 2 * 2 + 1 + 2
        assert bf.prog.G.shape == (2 * 1 + 7 * 1, bf.prog.n_vars)

    def test_counts_69_bus(self):
        sc = load_scenario(bundled_scenario_dir("ieee69"))
        bf = assemble_branch_flow(sc.network, {}, {}, loss_price=10.0)
        assert bf.prog.n_vars == 3 * 68 + 69 + 3 == 276
        assert bf.prog.n_eq == 2 * 69 + 68 + 2 == 208
        assert bf.prog.G.shape[0] == 2 * 68 + 7 * 68 == 612

    def test_unvalidated_network_rejected(self):
        bad = NetworkModel(
            buses=(Bus(1, is_pcc=True), Bus(2, is_pcc=True)),
            lines=(Line(1, 2, 0.01, 0.02, 1.0),),
        )
        with pytest.raises(ValueError, match="validation"):
            orient_feeder(bad)


class TestSolve:
    def test_zero_net_consumption(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(0.0, 0.0), np.array([10.0]), 1.0
        )
        assert out.p_loss[0] == pytest.approx(0.0, abs=1e-8)
        assert out.v[2][0] == pytest.approx(out.v[1][0], abs=1e-7)
        spread = abs(out.dlmp[1][0] - out.dlmp[2][0])
        assert spread <= 1e-5

    def test_against_loadflow_oracle(self):
        l_star, loss_star, v_star = loadflow_2bus(P2, Q2, 0.01, 0.02)
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        assert out.flows[0]["l"][0] == pytest.approx(l_star, rel=1e-6)
        assert out.p_loss[0] == pytest.approx(loss_star, rel=1e-6)
        assert out.v[2][0] == pytest.approx(v_star, rel=1e-7)

    def test_downstream_price_exceeds_upstream_with_losses(self):
        # three-bus chain; the deeper bus carries a higher marginal-loss price
        net = NetworkModel(
            buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1), Bus(3, 0.9, 1.1)),
            lines=(Line(1, 2, 0.02, 0.04, 1.0), Line(2, 3, 0.03, 0.06, 1.0)),
        )
        inp = DsoInput(
            p_net_node={1: np.zeros(1), 2: np.array([0.1]), 3: np.array([0.15])},
            q_net_node={1: np.zeros(1), 2: np.array([Q2]), 3: np.array([0.09])},
            p_loss_tilde=np.zeros(1),
            lambda_loss=np.zeros(1),
        )
        out = solve_dso_subproblem(net, inp, np.array([10.0]), 1.0)
        assert out.dlmp[3][0] > out.dlmp[2][0] > out.dlmp[1][0] - 1e-9
        # certify the deepest price by finite differences
        fd = orient_feeder(net)
        bf = assemble_branch_flow(
            net, {2: 0.1, 3: 0.15}, {2: Q2, 3: 0.09}, loss_price=10.0, feeder=fd
        )
        sol = solve_socp(bf.prog, tol=1e-10)
        pr = dual_sensitivity_probe(bf.prog, sol, bf.balance_rows[3], delta=1e-5, tol=1e-10)
        assert pr.conclusive
        assert pr.estimate == pytest.approx(out.dlmp[3][0], rel=1e-3)

    def test_overload_raises_naming_capacity(self):
        net = two_bus(smax=0.9 * math.hypot(P2, Q2))
        with pytest.raises(DsoInfeasible, match="capacity"):
            solve_dso_subproblem(net, one_hour_input(P2, Q2), np.array([10.0]), 1.0)

    def test_voltage_collapse_raises_naming_bound(self):
        net = two_bus(vmin=0.999)
        with pytest.raises(DsoInfeasible, match="hour 0"):
            solve_dso_subproblem(net, one_hour_input(P2, Q2), np.array([10.0]), 1.0)

    def test_load_beyond_relaxed_limits_named_unsolvable(self):
        # even without caps and with voltage bounds 0.1-4 pu the feeder
        # cannot carry this load; the diagnosis says so instead of recursing
        net = two_bus(r=0.3, x=0.6)
        with pytest.raises(DsoInfeasible, match="network equations unsolvable"):
            solve_dso_subproblem(net, one_hour_input(5.0, 3.0), np.array([10.0]), 1.0)

    def test_infeasible_hour_named_among_batched_hours(self):
        # four hours solved as one batch; only hour 2 overloads the line
        net = two_bus(smax=1.5 * math.hypot(P2, Q2))
        scale = np.array([1.0, 0.5, 2.0, 1.2])
        inp = DsoInput(
            p_net_node={1: np.zeros(4), 2: scale * P2},
            q_net_node={1: np.zeros(4), 2: scale * Q2},
            p_loss_tilde=np.zeros(4),
            lambda_loss=np.zeros(4),
        )
        with pytest.raises(DsoInfeasible, match="capacity") as err:
            solve_dso_subproblem(net, inp, np.full(4, 10.0), 1.0)
        assert err.value.hour == 2

    def test_batched_hours_match_separate_solves(self):
        net = two_bus()
        scale = np.array([1.0, 0.5, 2.0, 0.0])
        inp = DsoInput(
            p_net_node={1: np.zeros(4), 2: scale * P2},
            q_net_node={1: np.zeros(4), 2: scale * Q2},
            p_loss_tilde=np.array([0.0, 1e-4, 2e-4, 0.0]),
            lambda_loss=np.array([0.0, 1.0, -1.0, 0.5]),
        )
        loss_cost = np.array([10.0, 20.0, 30.0, 40.0])
        out = solve_dso_subproblem(net, inp, loss_cost, 1.0, rho_prime=2.0)
        for t in range(4):
            hour = DsoInput(
                p_net_node={b: a[t : t + 1] for b, a in inp.p_net_node.items()},
                q_net_node={b: a[t : t + 1] for b, a in inp.q_net_node.items()},
                p_loss_tilde=inp.p_loss_tilde[t : t + 1],
                lambda_loss=inp.lambda_loss[t : t + 1],
            )
            one = solve_dso_subproblem(net, hour, loss_cost[t : t + 1], 1.0, rho_prime=2.0)
            assert out.p_loss[t] == one.p_loss[0]
            assert out.objective[t] == one.objective[0]
            assert out.tightness[0, t] == one.tightness[0, 0]
            for bid in (1, 2):
                assert out.dlmp[bid][t] == one.dlmp[bid][0]
                assert out.v[bid][t] == one.v[bid][0]
            for key in ("p", "q", "l"):
                assert out.flows[0][key][t] == one.flows[0][key][0]

    def test_monotone_loss_in_load(self):
        base = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        up = solve_dso_subproblem(
            two_bus(), one_hour_input(1.2 * P2, 1.2 * Q2), np.array([10.0]), 1.0
        )
        assert up.p_loss[0] >= base.p_loss[0] - 1e-12

    def test_voltage_within_bounds(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        net = two_bus()
        for bid in (1, 2):
            bus = net.bus(bid)
            assert out.v[bid][0] >= bus.vmin**2 - 1e-8
            assert out.v[bid][0] <= bus.vmax**2 + 1e-8

    def test_loss_reported_exactly_from_currents(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        assert out.p_loss[0] == 0.01 * out.flows[0]["l"][0]


class TestTightness:
    def test_uncongested_radial_tight(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        rep = check_tightness(out, tol=1e-6)
        assert rep.ok
        assert rep.max_residual <= 1e-6

    def test_lossless_no_load_residual_zero(self):
        out = solve_dso_subproblem(
            two_bus(r=0.0, x=0.0), one_hour_input(0.0, 0.0), np.array([10.0]), 1.0
        )
        assert check_tightness(out, tol=1e-6).max_residual <= 1e-9

    def test_injected_slack_flagged(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2, Q2), np.array([10.0]), 1.0
        )
        out.tightness[0, 0] += 0.1
        rep = check_tightness(out, tol=1e-6)
        assert not rep.ok
        assert rep.flagged[0][:2] == (0, 0)


def test_lossless_uniform_prices_multi_bus():
    net = NetworkModel(
        buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1), Bus(3, 0.9, 1.1)),
        lines=(Line(1, 2, 0.0, 0.02, 1.0), Line(2, 3, 0.0, 0.03, 1.0)),
    )
    inp = DsoInput(
        p_net_node={1: np.zeros(1), 2: np.array([0.1]), 3: np.array([0.2])},
        q_net_node={1: np.zeros(1), 2: np.array([0.06]), 3: np.array([0.12])},
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )
    out = solve_dso_subproblem(net, inp, np.array([10.0]), 1.0)
    prices = [out.dlmp[b][0] for b in (1, 2, 3)]
    assert max(prices) - min(prices) <= 1e-5
