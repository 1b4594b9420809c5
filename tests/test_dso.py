import math
from dataclasses import replace

import numpy as np
import pytest

from lemclear.dso import (
    DsoInfeasible,
    DsoOutput,
    DsoInput,
    NetworkStarts,
    assemble_branch_flow,
    check_tightness,
    hour_programs,
    orient_feeder,
    relaxed_limits,
    solve_dso_subproblem,
)
from lemclear.io_cli import bundled_scenario_dir, load_scenario
from lemclear.model import Bus, Line, NetworkModel, reactive_from_pf
from lemclear.socp import ITER_LIMIT, SolveFailed, solve_socp
from certify import distflow_sweep, dual_sensitivity_probe, uncertify_hour


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


# bus 2's load at the default power factor 0.85, from which the operator
# derives its reactive consumption Q2
P2, Q2 = 0.1, reactive_from_pf(0.1, 0.85)


def one_hour_input(p):
    return DsoInput(
        p_net_node={1: np.zeros(1), 2: np.array([p])},
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )


class TestAssembly:
    def test_zero_impedance_reduces_to_balance(self):
        net = two_bus(r=0.0, x=0.0)
        out = solve_dso_subproblem(net, one_hour_input(P2), np.array([10.0]), 1.0)
        assert out.p_loss[0] == pytest.approx(0.0, abs=1e-9)
        assert out.flows[0]["p"][0] == pytest.approx(P2, abs=1e-7)

    def test_counts_two_bus(self):
        # variables p, q, l per line, v per bus, p_ug, q_ug, p_loss; rows:
        # two balances per bus, a voltage drop per line, loss, reference
        # voltage; cone rows: two voltage bounds per non-PCC bus, 4 + 3 per line
        bf = assemble_branch_flow(two_bus())
        assert bf.prog.n_vars == 3 * 1 + 2 + 3
        assert bf.prog.n_eq == 2 * 2 + 1 + 2
        assert bf.prog.G.shape == (2 * 1 + 7 * 1, bf.prog.n_vars)

    def test_counts_69_bus(self):
        sc = load_scenario(bundled_scenario_dir("ieee69"))
        bf = assemble_branch_flow(sc.network)
        assert bf.prog.n_vars == 3 * 68 + 69 + 3 == 276
        assert bf.prog.n_eq == 2 * 69 + 68 + 2 == 208
        assert bf.prog.G.shape[0] == 2 * 68 + 7 * 68 == 612

    @pytest.mark.parametrize("seed", range(8))
    def test_hour_programs_state_the_paper_hour(self, seed):
        # written out from the paper, independently of hour_programs: the
        # hour's objective in its total loss P and squared currents l, and
        # nodal injections on the balance rows, 0 where a bus has none, the
        # reactive ones p*tan(acos(pf)) at the bus's power factor
        rng = np.random.default_rng(seed)
        pf = dict(zip((1, 2, 3, 4), rng.uniform(0.5, 1.0, 4)))
        net = NetworkModel(
            buses=(Bus(1, 1.0, 1.0, True, pf[1]), Bus(2, pf=pf[2]), Bus(3, pf=pf[3]),
                   Bus(4, pf=pf[4])),
            lines=(Line(1, 2, 0.02, 0.04, 1.0), Line(2, 3, 0.03, 0.06, 1.0),
                   Line(2, 4, 0.01, 0.05, 1.0)),
        )
        T = 3
        present = [b for b in (1, 2, 3, 4) if rng.random() < 0.6]
        inp = DsoInput(
            p_net_node={b: rng.normal(size=T) for b in present},
            p_loss_tilde=rng.uniform(0.0, 0.1, T),
            lambda_loss=rng.normal(size=T),
        )
        loss_price = rng.uniform(0.0, 50.0, T)
        rho_prime = float(rng.uniform(0.0, 10.0))
        bf = assemble_branch_flow(net)
        progs = hour_programs(bf, inp, loss_price, rho_prime)
        assert len(progs) == T
        N, F = len(net.buses), len(net.lines)
        for t, prog in enumerate(progs):
            x = rng.normal(size=prog.n_vars)
            P, l = x[bf.p_loss], x[bf.off_l : bf.off_l + F]
            lam, tilde = inp.lambda_loss[t], inp.p_loss_tilde[t]
            expect = (loss_price[t] * P + lam * (tilde - P)
                      + rho_prime / 2 * (P - tilde) ** 2 + 1e-9 * l.sum())
            assert prog.objective(x) == pytest.approx(expect, rel=1e-12, abs=1e-12)
            for bus in (1, 2, 3, 4):
                row = bf.balance_rows[bus]
                p = inp.p_net_node[bus][t] if bus in present else 0.0
                assert prog.b[row] == p
                assert prog.b[row + N] == pytest.approx(
                    p * math.tan(math.acos(pf[bus])), rel=1e-14, abs=0.0)
            assert np.array_equal(prog.b[2 * N :], bf.prog.b[2 * N :])

    def test_relaxed_limits_keep_power_factors(self):
        net = NetworkModel(
            buses=(Bus(1, 1.0, 1.0, True, 0.9), Bus(2, 0.95, 1.05, pf=0.7)),
            lines=(Line(1, 2, 0.01, 0.02, 0.1),),
        )
        relaxed = relaxed_limits(net)
        assert [b.pf for b in relaxed.buses] == [0.9, 0.7]
        assert [(b.vmin, b.vmax) for b in relaxed.buses] == [(0.1, 4.0)] * 2
        assert np.array_equal(assemble_branch_flow(relaxed).tan_phi,
                              assemble_branch_flow(net).tan_phi)

    def test_bad_bus_power_factor_rejected(self):
        net = replace(two_bus(), buses=(Bus(1, 1.0, 1.0, True), Bus(2, pf=1.5)))
        with pytest.raises(ValueError, match="power factor outside"):
            orient_feeder(net)

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
            two_bus(), one_hour_input(0.0), np.array([10.0]), 1.0
        )
        assert out.p_loss[0] == pytest.approx(0.0, abs=1e-8)
        assert out.v[2][0] == pytest.approx(out.v[1][0], abs=1e-7)
        spread = abs(out.dlmp[1][0] - out.dlmp[2][0])
        assert spread <= 1e-5

    def test_against_loadflow_oracle(self):
        l_star, loss_star, v_star = loadflow_2bus(P2, Q2, 0.01, 0.02)
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
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
            p_loss_tilde=np.zeros(1),
            lambda_loss=np.zeros(1),
        )
        out = solve_dso_subproblem(net, inp, np.array([10.0]), 1.0)
        assert out.dlmp[3][0] > out.dlmp[2][0] > out.dlmp[1][0] - 1e-9
        # certify the deepest price by finite differences
        bf = assemble_branch_flow(net)
        (prog,) = hour_programs(bf, inp, np.array([10.0]), 0.0)
        sol = solve_socp(prog, tol=1e-10)
        pr = dual_sensitivity_probe(prog, sol, bf.balance_rows[3], delta=1e-5, tol=1e-10)
        assert pr.conclusive
        assert pr.estimate == pytest.approx(out.dlmp[3][0], rel=1e-3)

    def test_overload_raises_naming_capacity(self):
        net = two_bus(smax=0.9 * math.hypot(P2, Q2))
        with pytest.raises(DsoInfeasible, match="capacity"):
            solve_dso_subproblem(net, one_hour_input(P2), np.array([10.0]), 1.0)

    def test_voltage_collapse_raises_naming_bound(self):
        net = two_bus(vmin=0.999)
        with pytest.raises(DsoInfeasible, match="hour 0"):
            solve_dso_subproblem(net, one_hour_input(P2), np.array([10.0]), 1.0)

    def test_load_beyond_relaxed_limits_named_unsolvable(self):
        # even without caps and with voltage bounds 0.1-4 pu the feeder
        # cannot carry this load; the diagnosis says so instead of recursing
        net = two_bus(r=0.3, x=0.6)
        with pytest.raises(DsoInfeasible, match="network equations unsolvable"):
            solve_dso_subproblem(net, one_hour_input(5.0), np.array([10.0]), 1.0)

    def test_infeasible_hour_named_among_batched_hours(self):
        # four hours solved as one batch; only hour 2 overloads the line
        net = two_bus(smax=1.5 * math.hypot(P2, Q2))
        scale = np.array([1.0, 0.5, 2.0, 1.2])
        inp = DsoInput(
            p_net_node={1: np.zeros(4), 2: scale * P2},
            p_loss_tilde=np.zeros(4),
            lambda_loss=np.zeros(4),
        )
        with pytest.raises(DsoInfeasible, match="capacity") as err:
            solve_dso_subproblem(net, inp, np.full(4, 10.0), 1.0)
        assert err.value.hour == 2

    def test_uncertified_hour_is_a_failed_solve(self, monkeypatch):
        # an hour that ends without a certificate proves nothing about the
        # network: it is a failed solve, not an infeasible hour
        uncertify_hour(monkeypatch, 1)
        inp = DsoInput(
            p_net_node={1: np.zeros(3), 2: np.full(3, P2)},
            p_loss_tilde=np.zeros(3),
            lambda_loss=np.zeros(3),
        )
        with pytest.raises(SolveFailed) as err:
            solve_dso_subproblem(two_bus(), inp, np.full(3, 10.0), 1.0)
        assert err.value.agent == "network hour 1"
        assert err.value.status == ITER_LIMIT

    def test_batched_hours_match_separate_solves(self):
        net = two_bus()
        scale = np.array([1.0, 0.5, 2.0, 0.0])
        inp = DsoInput(
            p_net_node={1: np.zeros(4), 2: scale * P2},
            p_loss_tilde=np.array([0.0, 1e-4, 2e-4, 0.0]),
            lambda_loss=np.array([0.0, 1.0, -1.0, 0.5]),
        )
        loss_cost = np.array([10.0, 20.0, 30.0, 40.0])
        out = solve_dso_subproblem(net, inp, loss_cost, 1.0, rho_prime=2.0)
        for t in range(4):
            hour = DsoInput(
                p_net_node={b: a[t : t + 1] for b, a in inp.p_net_node.items()},
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
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
        )
        up = solve_dso_subproblem(
            two_bus(), one_hour_input(1.2 * P2), np.array([10.0]), 1.0
        )
        assert up.p_loss[0] >= base.p_loss[0] - 1e-12

    def test_voltage_within_bounds(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
        )
        net = two_bus()
        for bid in (1, 2):
            bus = net.bus(bid)
            assert out.v[bid][0] >= bus.vmin**2 - 1e-8
            assert out.v[bid][0] <= bus.vmax**2 + 1e-8

    def test_loss_reported_exactly_from_currents(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
        )
        assert out.p_loss[0] == 0.01 * out.flows[0]["l"][0]


def assert_matches_load_flow(net: NetworkModel, p: dict[int, np.ndarray], out: DsoOutput):
    """out's squared voltages (to 1e-9) and losses (to 1e-8 relative) are the
    load flow's at the net consumptions ``p``, and its cone is tight."""
    q = {b: a * math.tan(math.acos(net.bus(b).pf)) for b, a in p.items()}
    v, l = distflow_sweep(net, p, q)
    for bus in net.buses:
        np.testing.assert_allclose(out.v[bus.id], v[bus.id], rtol=0.0, atol=1e-9)
    losses = sum(ln.r * l[li] for li, ln in enumerate(net.lines))
    np.testing.assert_allclose(out.p_loss, losses, rtol=1e-8, atol=0.0)
    assert check_tightness(out).ok


class TestLoadFlowOracle:
    # at a positive loss price and with no limit binding, the relaxation is
    # exact (Farivar & Low, IEEE TPWRS 2013): the operator's hours are the
    # feeder's load flow

    def test_ieee69_baseline_day(self, ieee69):
        p = {b.id: np.zeros(ieee69.horizon) for b in ieee69.network.buses}
        for pros in ieee69.prosumers:
            p[pros.bus_id] = p[pros.bus_id] + pros.baseline_load
        for bus, load in ieee69.background.items():
            p[bus] = p[bus] + load
        inp = DsoInput(p, np.zeros(ieee69.horizon), np.zeros(ieee69.horizon))
        out = solve_dso_subproblem(ieee69.network, inp, ieee69.loss_cost, ieee69.dt)
        assert_matches_load_flow(ieee69.network, p, out)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_radial_trees(self, seed):
        # 30 buses with shuffled ids, any bus the PCC, lines stated in either
        # direction, some buses exporting; limits far from binding
        rng = np.random.default_rng(seed)
        ids = [int(i) for i in rng.permutation(np.arange(1, 31)) * 3]
        lines = []
        for k in range(1, 30):
            ends = (ids[int(rng.integers(k))], ids[k])
            a, b = ends if rng.random() < 0.5 else ends[::-1]
            lines.append(Line(a, b, rng.uniform(0.001, 0.02), rng.uniform(0.001, 0.02), 10.0))
        pcc = ids[0]
        net = NetworkModel(
            buses=tuple(Bus(b, 0.5, 1.5, b == pcc, rng.uniform(0.8, 1.0)) for b in sorted(ids)),
            lines=tuple(lines),
        )
        T = 4
        p = {b: rng.uniform(-0.02, 0.1, T) for b in ids if b != pcc and rng.random() < 0.8}
        inp = DsoInput(p, np.zeros(T), np.zeros(T))
        out = solve_dso_subproblem(net, inp, rng.uniform(10.0, 50.0, T), 1.0)
        assert_matches_load_flow(net, p, out)


class TestCarriedStarts:
    # the inner loop's second network pass on ieee69's baseline day: the
    # same injections, the loss consensus moved on, solved from the first
    # pass's solutions and cold

    def passes(self, sc, monkeypatch):
        """The second pass warm and cold, with each solve's total IPM
        iterations, and the carried state."""
        import lemclear.dso as dso

        T = sc.horizon
        p = {b.id: np.zeros(T) for b in sc.network.buses}
        for pros in sc.prosumers:
            p[pros.bus_id] = p[pros.bus_id] + pros.baseline_load
        for bus, load in sc.background.items():
            p[bus] = p[bus] + load
        iterations = []
        batch = dso.solve_socp_batch

        def counted(progs, **kwargs):
            sols = batch(progs, **kwargs)
            iterations.append(sum(sol.iterations for sol in sols))
            return sols

        monkeypatch.setattr(dso, "solve_socp_batch", counted)
        starts = NetworkStarts()

        def solve(inp, starts=None):
            return solve_dso_subproblem(sc.network, inp, sc.loss_cost, sc.dt, 1.0, starts=starts)

        first = solve(DsoInput(p, np.zeros(T), np.zeros(T)), starts)
        tilde = 1.05 * first.p_loss + 1e-4
        second = DsoInput(p, tilde, tilde - first.p_loss)
        warm, cold = solve(second, starts), solve(second)
        return warm, cold, iterations, starts

    def test_second_pass_from_the_first_is_cheaper_and_agrees(self, ieee69, monkeypatch):
        # measured: 102 iterations warm against 282 cold, prices within
        # 1.2e-6 of the largest and losses within 1.6e-12
        warm, cold, (_, warm_iters, cold_iters), _ = self.passes(ieee69, monkeypatch)
        assert warm_iters < cold_iters
        scale = max(np.abs(v).max() for v in cold.dlmp.values())
        for bus, price in cold.dlmp.items():
            assert np.abs(warm.dlmp[bus] - price).max() <= 1e-5 * scale
        assert np.abs(warm.p_loss - cold.p_loss).max() <= 1e-10
        assert check_tightness(warm).ok

    def test_pattern_derived_once_for_the_passes(self, ieee69, monkeypatch):
        # the carried state keeps the hours' pattern: the two passes that
        # carry it derive it once, the cold pass once more
        import lemclear.socp as socp

        built = []
        pattern = socp._Pattern

        def counted(prog):
            built.append(prog.n_vars)
            return pattern(prog)

        monkeypatch.setattr(socp, "_Pattern", counted)
        *_, starts = self.passes(ieee69, monkeypatch)
        assert len(built) == 2 and len(starts.patterns) == 1
        assert len(starts.hours) == ieee69.horizon


class TestTightness:
    def test_uncongested_radial_tight(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
        )
        rep = check_tightness(out, tol=1e-6)
        assert rep.ok
        assert rep.max_residual <= 1e-6

    def test_lossless_no_load_residual_zero(self):
        out = solve_dso_subproblem(
            two_bus(r=0.0, x=0.0), one_hour_input(0.0), np.array([10.0]), 1.0
        )
        assert check_tightness(out, tol=1e-6).max_residual <= 1e-9

    def test_injected_slack_flagged(self):
        out = solve_dso_subproblem(
            two_bus(), one_hour_input(P2), np.array([10.0]), 1.0
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
        p_loss_tilde=np.zeros(1),
        lambda_loss=np.zeros(1),
    )
    out = solve_dso_subproblem(net, inp, np.array([10.0]), 1.0)
    prices = [out.dlmp[b][0] for b in (1, 2, 3)]
    assert max(prices) - min(prices) <= 1e-5
