import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lemclear.miqp import mbp_search, solve_mbp, solve_searches
from lemclear.model import AdmmConfig, FlexibleLoad, Prosumer, PvUnit, StorageDevice
from lemclear.prosumer import (
    ProsumerInput,
    build_subproblem,
    soc_step,
    solve_subproblem_III,
    validate_schedule,
)
from lemclear.socp import OPTIMAL

T = 24
CFG = AdmmConfig()
FLAT = ProsumerInput(lambda_lem=np.full(T, 50.0), p_tilde=None, lambda_p=np.zeros(T))


def battery(**kw):
    base = dict(
        name="b", p_ch_max=0.05, p_dch_max=0.05, eta_ch=1.0, eta_dch=1.0,
        e0=0.0, soc_min=0.0, soc_max=0.05, window=(0, 23), e_trip=0.0,
        throughput_cost=0.0,
    )
    base.update(kw)
    return StorageDevice(**base)


class TestBuildSubproblem:
    def test_variables_are_the_schedule(self):
        # PV + battery + flexible load over 4 hours: p_net, SoC, PV output,
        # charge/discharge powers and gates, FL deviations and flags
        H = 4
        pros = Prosumer(
            id="a", bus_id=2, baseline_load=np.full(H, 0.1),
            pvs=(PvUnit(p_forecast=np.full(H, 0.05), s_inv=0.1),),
            storages=(battery(window=(0, H - 1)),),
            fls=(FlexibleLoad(p_fl_max=np.full(H, 0.01), t_max=2, e_min=0.0),),
        )
        inp = ProsumerInput(lambda_lem=np.full(H, 50.0), p_tilde=None, lambda_p=np.zeros(H))
        prog = build_subproblem(pros, inp, CFG, 1.0, H).mbp.relaxation
        assert prog.n_vars == H + H + H + 4 * H + 3 * H
        # net-power identity and SoC recursion per hour
        assert prog.n_eq == H + H

    def test_no_devices_is_passthrough(self):
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1))
        pp = build_subproblem(pros, FLAT, CFG, 1.0, T)
        assert pp.n_binaries == 0
        sched = solve_subproblem_III(pros, FLAT, CFG, 1.0, T)
        assert np.allclose(sched.p_net, 0.1, atol=1e-7)

    def test_binary_count_formula(self):
        ev = battery(window=(18, 22), e_trip=0.0)
        fl = FlexibleLoad(p_fl_max=np.full(T, 0.01), t_max=4, e_min=0.0)
        pros = Prosumer(
            id="a", bus_id=2, baseline_load=np.full(T, 0.1),
            storages=(battery(), ev), fls=(fl,),
        )
        pp = build_subproblem(pros, FLAT, CFG, 1.0, T)
        assert pp.n_binaries == 2 * 24 + 2 * 5 + T

    def test_ev_trip_energy_enumeration(self):
        # charge-only vehicle, window [18, 22], must reach 0.008 pu-h from 0;
        # flat prices make any minimal-energy profile optimal, so the optimum
        # charges exactly the trip requirement
        ev = battery(
            name="ev", p_ch_max=0.004, window=(18, 22), soc_max=0.02, e_trip=0.008
        )
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.zeros(T), storages=(ev,))
        sched = solve_subproblem_III(pros, FLAT, CFG, 1.0, T, mode="exact")
        st_ = sched.storages[0]
        assert st_.soc[22] >= 0.008 - 1e-6
        assert float(np.sum(st_.p_ch)) == pytest.approx(0.008, abs=1e-6)
        # independent check: enumerate hourly charge profiles on a grid and
        # confirm no cheaper feasible charging total exists
        feasible_totals = []
        for profile in itertools.product([0.0, 0.002, 0.004], repeat=5):
            if sum(profile) >= 0.008 - 1e-12:
                feasible_totals.append(sum(profile))
        assert min(feasible_totals) == pytest.approx(0.008, abs=1e-12)

    def test_unreachable_trip_rejected_at_build(self):
        ev = battery(window=(18, 19), e0=0.0, e_trip=0.05, p_ch_max=0.004, soc_max=0.05)
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.zeros(T), storages=(ev,))
        with pytest.raises(ValueError, match="departure floor"):
            build_subproblem(pros, FLAT, CFG, 1.0, T)

    def test_unattainable_energy_floor_rejected(self):
        fl = FlexibleLoad(p_fl_max=np.full(T, 0.01), t_max=4, e_min=10.0)
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1), fls=(fl,))
        with pytest.raises(ValueError, match="energy floor"):
            build_subproblem(pros, FLAT, CFG, 1.0, T)


class TestSolve:
    def test_flat_prices_storage_idles(self):
        b = battery(eta_ch=0.95, eta_dch=0.95, e0=0.02, soc_min=0.005,
                    e_trip=0.02, throughput_cost=1.0)
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1), storages=(b,))
        sched = solve_subproblem_III(pros, FLAT, CFG, 1.0, T, mode="exact")
        st_ = sched.storages[0]
        assert np.max(np.abs(st_.p_ch)) <= 1e-6
        assert np.max(np.abs(st_.p_dch)) <= 1e-6
        # verified independently: with flat prices and lossy cycling, the
        # branch-and-bound optimum matches the do-nothing objective
        idle_obj = float(np.sum(pros.baseline_load * FLAT.lambda_lem))
        assert sched.objective == pytest.approx(idle_obj, rel=1e-7)

    def test_two_hour_arbitrage(self):
        prices = np.full(T, 50.0)
        prices[3], prices[19] = 10.0, 100.0
        inp = ProsumerInput(lambda_lem=prices, p_tilde=None, lambda_p=np.zeros(T))
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.zeros(T), storages=(battery(),))
        sched = solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="exact")
        st_ = sched.storages[0]
        assert st_.p_ch[3] == pytest.approx(0.05, abs=1e-6)
        assert st_.p_dch[19] == pytest.approx(0.05, abs=1e-6)
        # hand enumeration of the two-hour trade: buy 0.05 at 10, sell at 100
        assert sched.objective == pytest.approx(0.05 * 10 - 0.05 * 100, abs=1e-5)

    def test_consensus_domination_at_large_rho(self):
        # enough stored energy that the target profile is device-feasible
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.full(T, 0.1),
                        storages=(battery(p_ch_max=0.2, p_dch_max=0.2,
                                          soc_max=0.6, e0=0.6),))
        target = np.full(T, 0.08)
        # the linear price term displaces the minimizer by lambda/rho, so a
        # small price keeps the displacement inside the stated tolerance
        inp = ProsumerInput(lambda_lem=np.full(T, 5.0), p_tilde=target, lambda_p=np.zeros(T))
        cfg = AdmmConfig(rho=1e4)
        sched = solve_subproblem_III(pros, inp, cfg, 1.0, T, mode="exact")
        assert np.max(np.abs(sched.p_net - target)) <= 1e-3

    def test_exact_and_repair_agree_on_easy_instance(self):
        prices = np.asarray([30.0, 20, 25, 40, 60, 80, 70, 50] * 3)
        inp = ProsumerInput(lambda_lem=prices, p_tilde=None, lambda_p=np.zeros(T))
        pros = Prosumer(
            id="a", bus_id=2, baseline_load=np.full(T, 0.1),
            storages=(battery(eta_ch=0.95, eta_dch=0.95, e0=0.01, e_trip=0.01,
                              throughput_cost=1.0),),
        )
        exact = solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="exact")
        repair = solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="relax_repair")
        assert repair.objective >= exact.objective - 1e-7
        assert validate_schedule(pros, repair, 1.0) == []

    def test_objective_consistency(self):
        prices = np.linspace(20, 90, T)
        target = np.full(T, 0.05)
        inp = ProsumerInput(lambda_lem=prices, p_tilde=target, lambda_p=np.full(T, -30.0))
        fl = FlexibleLoad(p_fl_max=np.full(T, 0.01), t_max=5, e_min=0.9 * 0.1 * T,
                          discomfort_cost=3.0)
        pros = Prosumer(
            id="a", bus_id=2, baseline_load=np.full(T, 0.1),
            storages=(battery(throughput_cost=2.0, e0=0.02, e_trip=0.02,
                              eta_ch=0.95, eta_dch=0.95, soc_min=0.0),),
            fls=(fl,),
        )
        sched = solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="exact")
        recomputed = (
            float(np.sum(sched.p_net * prices))
            + sched.cost_devices
            + float(np.sum(inp.lambda_p * (target - sched.p_net)))
            + 0.5 * CFG.rho * float(np.sum((target - sched.p_net) ** 2))
        )
        assert recomputed == pytest.approx(sched.objective, rel=1e-6, abs=1e-6)

    def test_exclusivity_holds_in_exact_mode(self):
        prices = np.asarray([10.0, 90] * 12)
        inp = ProsumerInput(lambda_lem=prices, p_tilde=None, lambda_p=np.zeros(T))
        pros = Prosumer(id="a", bus_id=2, baseline_load=np.zeros(T),
                        storages=(battery(eta_ch=0.9, eta_dch=0.9),))
        sched = solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="exact")
        st_ = sched.storages[0]
        assert np.max(st_.x_ch * st_.x_dch) <= 1e-6
        assert validate_schedule(pros, sched, 1.0) == []


class TestSocStep:
    def test_charge_arithmetic(self):
        d = battery(eta_ch=0.95, p_ch_max=10.0, soc_max=100.0)
        assert soc_step(0.0, 10.0, 0.0, d, 1.0) == pytest.approx(9.5, abs=1e-12)

    def test_round_trip(self):
        d = battery(eta_ch=0.95, eta_dch=0.95, p_ch_max=10, p_dch_max=10, soc_max=100)
        up = soc_step(0.0, 10.0, 0.0, d, 1.0)
        down = soc_step(up, 0.0, 9.5 * 0.95, d, 1.0)
        assert down == pytest.approx(0.0, abs=1e-12)

    def test_idle_unchanged(self):
        d = battery()
        assert soc_step(0.0123, 0.0, 0.0, d, 1.0) == 0.0123

    @settings(deadline=None, max_examples=40)
    @given(
        soc=st.floats(min_value=0, max_value=1),
        pch=st.floats(min_value=0, max_value=0.1),
        pdch=st.floats(min_value=0, max_value=0.1),
    )
    def test_linearity(self, soc, pch, pdch):
        d = battery(eta_ch=0.9, eta_dch=0.8, p_ch_max=1, p_dch_max=1, soc_max=10)
        expect = soc + (0.9 * pch - pdch / 0.8) * 0.5
        assert soc_step(soc, pch, pdch, d, 0.5) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestValidateSchedule:
    def _solved(self):
        prices = np.linspace(20, 90, T)
        inp = ProsumerInput(lambda_lem=prices, p_tilde=None, lambda_p=np.zeros(T))
        fl = FlexibleLoad(p_fl_max=np.full(T, 0.01), t_max=4, e_min=0.9 * 0.1 * T,
                          discomfort_cost=3.0)
        pros = Prosumer(
            id="a", bus_id=2, baseline_load=np.full(T, 0.1),
            storages=(battery(e0=0.02, e_trip=0.02, eta_ch=0.95, eta_dch=0.95),),
            fls=(fl,),
        )
        return pros, solve_subproblem_III(pros, inp, CFG, 1.0, T, mode="exact")

    def test_solver_output_clean(self):
        pros, sched = self._solved()
        assert validate_schedule(pros, sched, 1.0) == []

    def test_corrupted_soc_flagged_at_hour(self):
        pros, sched = self._solved()
        sched.storages[0].soc[10] += 0.01
        bad = validate_schedule(pros, sched, 1.0)
        assert any("SoC recursion broken at hour 10" in v or
                   "SoC recursion broken at hour 11" in v for v in bad)

    def test_fl_count_overrun_flagged(self):
        pros, sched = self._solved()
        sched.fls[0].y_fl[:] = 1.0
        sched.fls[0].p_fl[:] = 0.005
        bad = validate_schedule(pros, sched, 1.0)
        assert any("budget" in v for v in bad)

    def test_trip_floor_violation_flagged(self):
        pros, sched = self._solved()
        sched.storages[0].soc[:] = 0.0
        bad = validate_schedule(pros, sched, 1.0)
        assert any("departure floor" in v for v in bad)


# ---------------------------------------------------------------------------
# Independent MILP oracle.  A first-pass program (p_tilde=None) has no
# quadratic term and only NonNeg rows, so it is a mixed-binary LP that HiGHS
# (scipy.optimize.milp) solves on its own; branch and bound must reach the
# same optimum, alone and with other prosumers' searches in one batch.
# ---------------------------------------------------------------------------

H4 = 4
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def storages(draw, name):
    soc_max = draw(st.floats(min_value=0.02, max_value=0.2))
    e0 = draw(unit) * soc_max
    p_ch = draw(st.floats(min_value=0.01, max_value=0.1))
    eta_ch = draw(st.floats(min_value=0.8, max_value=1.0))
    t0 = draw(st.integers(0, H4 - 1))
    t1 = draw(st.integers(t0, H4 - 1))
    reach = min(soc_max, e0 + eta_ch * p_ch * (t1 - t0 + 1))
    return StorageDevice(
        name=name, p_ch_max=p_ch, p_dch_max=draw(st.floats(min_value=0.01, max_value=0.1)),
        eta_ch=eta_ch, eta_dch=draw(st.floats(min_value=0.8, max_value=1.0)),
        e0=e0, soc_min=draw(unit) * e0, soc_max=soc_max, window=(t0, t1),
        e_trip=draw(unit) * reach, throughput_cost=draw(st.floats(0.0, 5.0)),
    )


@st.composite
def fleets(draw, index):
    load = np.array(draw(st.lists(st.floats(0.0, 0.2), min_size=H4, max_size=H4)))
    pvs = tuple(
        PvUnit(p_forecast=np.array(draw(st.lists(st.floats(0.0, 0.1), min_size=H4, max_size=H4))),
               s_inv=draw(st.floats(0.02, 0.2)))
        for _ in range(draw(st.integers(0, 1)))
    )
    fls = tuple(
        FlexibleLoad(
            p_fl_max=np.array(draw(st.lists(st.floats(0.0, 0.05), min_size=H4, max_size=H4))),
            t_max=draw(st.integers(0, H4)),
            e_min=draw(st.floats(0.5, 1.0)) * float(np.sum(load)),
            discomfort_cost=draw(st.floats(0.0, 20.0)),
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    stores = tuple(draw(storages(f"s{k}")) for k in range(draw(st.integers(0, 2))))
    pros = Prosumer(id=f"p{index}", bus_id=2, baseline_load=load, pvs=pvs, storages=stores, fls=fls)
    prices = np.array(draw(st.lists(st.floats(10.0, 100.0), min_size=H4, max_size=H4)))
    return pros, ProsumerInput(lambda_lem=prices, p_tilde=None, lambda_p=np.zeros(H4))


def highs_optimum(mbp) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp

    prog = mbp.relaxation
    assert not np.any(prog.q) and all(cb.kind == "nonneg" for cb in prog.cones)
    integrality = np.zeros(prog.n_vars)
    integrality[list(mbp.binary_indices)] = 1
    res = milp(
        prog.c,
        constraints=[LinearConstraint(prog.A, prog.b, prog.b),
                     LinearConstraint(prog.G, -np.inf, prog.h)],
        integrality=integrality,
        bounds=Bounds(-np.inf, np.inf),
        # HiGHS's presolve drops bounds near its 1e-7 feasibility tolerance
        options={"mip_rel_gap": 1e-10, "presolve": False},
    )
    assert res.status == 0, res.message
    return float(res.fun) + prog.c0


class TestMilpOracle:
    @settings(max_examples=20, deadline=None)
    @given(problems=st.integers(1, 3).flatmap(lambda k: st.tuples(*(fleets(i) for i in range(k)))))
    def test_branch_and_bound_matches_highs(self, problems):
        mbps = [build_subproblem(pros, inp, CFG, 1.0, H4).mbp for pros, inp in problems]
        together = solve_searches([mbp_search(mbp) for mbp in mbps], tol=1e-9)
        for mbp, batched in zip(mbps, together):
            alone = solve_mbp(mbp, tol=1e-9)
            expect = highs_optimum(mbp)
            assert alone.status == OPTIMAL
            assert abs(alone.obj_incumbent - expect) <= 1e-6 * (1.0 + abs(expect))
            assert batched.obj_incumbent == alone.obj_incumbent
            assert batched.nodes_explored == alone.nodes_explored
            assert np.array_equal(batched.x_incumbent, alone.x_incumbent)
