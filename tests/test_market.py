from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lemclear.dso import DsoInput, check_tightness
from lemclear.io_cli import GeneratorSpec, assemble_scenario, generate_tables
from lemclear.market import (
    MESSAGE_SCHEMA,
    ConvergenceTrace,
    MessageBus,
    audit_privacy,
    check_stop,
    run_clearing,
)
from lemclear.model import (
    AdmmConfig,
    Bus,
    Line,
    NetworkModel,
    Prosumer,
    PvUnit,
    Scenario,
    StorageDevice,
)
from lemclear.oracle import solve_centralized
from lemclear.prosumer import ProsumerInput, solve_subproblem_III, validate_schedule
from lemclear.socp import OPTIMAL, SolveFailed
from certify import spy_batch_order, spy_runs

T = 24


def small_scenario(eps=1e-6):
    net = NetworkModel(
        buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1), Bus(3, 0.9, 1.1)),
        lines=(Line(1, 2, 0.01, 0.02, 1.0), Line(2, 3, 0.015, 0.03, 1.0)),
    )
    prices = np.array([30.0, 28, 25, 20, 22, 26, 35, 45, 55, 60, 58, 55,
                       50, 48, 47, 50, 60, 75, 90, 85, 70, 55, 45, 35])
    pv_cf = np.clip(np.sin((np.arange(T) - 6) / 12 * np.pi), 0, None)
    bess = StorageDevice("bess", 0.02, 0.02, 0.95, 0.95, e0=0.01, soc_min=0.004,
                         soc_max=0.04, window=(0, 23), e_trip=0.01, throughput_cost=2.0)
    pv = PvUnit(p_forecast=0.03 * pv_cf, s_inv=0.04, pf=0.95)
    p1 = Prosumer(id="a1", bus_id=2, baseline_load=np.full(T, 0.05),
                  pvs=(pv,), storages=(bess,))
    p2 = Prosumer(id="a2", bus_id=3, baseline_load=np.full(T, 0.04), storages=(bess,))
    return Scenario(
        network=net, prosumers=(p1, p2), horizon=T, dt=1.0,
        wem_price=prices, loss_cost=np.full(T, 15.0),
        admm=AdmmConfig(eps1=eps, eps2=eps),
        background={3: np.full(T, 0.02)},
    )


class TestCheckStop:
    def test_zero_residuals(self):
        assert check_stop(np.zeros(5), 1e-12)

    def test_above_threshold(self):
        assert not check_stop(np.array([1e-3, 0.0]), 1e-4)

    def test_boundary_inclusive(self):
        assert check_stop(np.array([1e-4]), 1e-4)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            check_stop(np.zeros(1), 0.0)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=8),
           st.floats(min_value=1e-9, max_value=1.0))
    def test_matches_infinity_norm(self, res, eps):
        assert check_stop(np.array(res), eps) == (max(abs(r) for r in res) <= eps)


class TestRunClearing:
    def test_zero_scenario_fixed_point_in_one_iteration(self):
        net = NetworkModel(
            buses=(Bus(1, 1.0, 1.0, True), Bus(2, 0.9, 1.1)),
            lines=(Line(1, 2, 0.01, 0.02, 1.0),),
        )
        sc = Scenario(
            network=net,
            prosumers=(Prosumer(id="a", bus_id=2, baseline_load=np.zeros(T)),),
            horizon=T, dt=1.0, wem_price=np.zeros(T), loss_cost=np.zeros(T),
            admm=AdmmConfig(eps1=1e-8, eps2=1e-8),
        )
        res = run_clearing(sc)
        assert res.status == "converged"
        assert res.outer_iterations == 1
        # the origin is quadratic-flat, so signals resolve to sqrt(tol) scale
        assert np.max(np.abs(res.p_ug)) <= 1e-4
        assert np.max(np.abs(res.schedules["a"].p_net)) <= 1e-8
        assert all(np.max(np.abs(v)) <= 1e-8 for v in res.lambda_p.values())

    def test_wall_seconds_is_timed_outside_the_digest(self, monkeypatch):
        # the same clearing under a clock that runs twice as fast: same
        # digest, twice the wall time
        import lemclear.market as market

        class Clock:
            def __init__(self, step):
                self.now, self.step = 0.0, step

            def perf_counter(self):
                self.now += self.step
                return self.now

        sc = small_scenario()
        runs = []
        for step in (1.0, 2.0):
            monkeypatch.setattr(market, "time", Clock(step))
            runs.append(run_clearing(sc))
        slow, fast = runs
        assert slow.trace.digest() == fast.trace.digest()
        assert fast.wall_seconds == 2.0 * slow.wall_seconds > 0.0

    def test_network_assembled_once_per_clearing(self, monkeypatch):
        # every inner pass solves on the structure the clearing built once,
        # and gets what it gets when each pass builds its own
        import lemclear.dso as dso
        import lemclear.market as market

        sc = small_scenario()
        built = []
        assemble, solve = dso.assemble_branch_flow, market.solve_dso_subproblem

        def spy(*args, **kwargs):
            built.append(args)
            return assemble(*args, **kwargs)

        def own_structure(*args, bf=None, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(dso, "assemble_branch_flow", spy)
        shared = run_clearing(sc)
        passes = sum(shared.inner_iterations_per_outer)
        assert len(built) == 1 and passes > 1
        monkeypatch.setattr(market, "solve_dso_subproblem", own_structure)
        apart = run_clearing(sc)
        assert len(built) == 2 + passes
        assert shared.trace.digest() == apart.trace.digest()

    def test_prosumers_assembled_once_per_clearing(self, monkeypatch):
        # every outer pass poses the programs the clearing assembled once,
        # and gets what it gets when each pass assembles its own
        import lemclear.market as market
        import lemclear.prosumer as prosumer

        sc = small_scenario()
        built = []
        assemble, solve = prosumer.assemble_prosumer, market.solve_subproblems

        def spy(pros, *args):
            built.append(pros.id)
            return assemble(pros, *args)

        def own_assembly(problems, *args, **kwargs):
            fresh = [(assemble(pp.pros, pp.dt, pp.horizon), inp) for pp, inp in problems]
            return solve(fresh, *args, **kwargs)

        monkeypatch.setattr(prosumer, "assemble_prosumer", spy)
        shared = run_clearing(sc)
        assert shared.outer_iterations > 1
        assert sorted(built) == sorted(p.id for p in sc.prosumers)
        monkeypatch.setattr(market, "solve_subproblems", own_assembly)
        apart = run_clearing(sc)
        assert shared.trace.digest() == apart.trace.digest()

    def test_converges_within_envelope(self):
        res = run_clearing(small_scenario(), prosumer_solver="exact")
        assert res.status == "converged"
        assert res.outer_iterations <= 20
        assert all(n <= 10 for n in res.inner_iterations_per_outer)

    def test_converged_consensus_bound(self):
        sc = small_scenario()
        res = run_clearing(sc, prosumer_solver="exact")
        bound = sc.admm.eps1 / sc.admm.rho + 1e-9
        for a in res.p_tilde:
            assert np.max(np.abs(res.p_tilde[a] - res.schedules[a].p_net)) <= bound

    def test_p_ug_reconstruction(self):
        sc = small_scenario()
        res = run_clearing(sc, prosumer_solver="exact")
        recon = res.p_loss_tilde + sc.total_background()
        for a in sorted(res.p_tilde):
            recon = recon + res.p_tilde[a]
        assert np.max(np.abs(recon - res.p_ug)) <= 1e-12

    def test_costs_recomputed_from_primitives(self):
        sc = small_scenario()
        res = run_clearing(sc, prosumer_solver="exact")
        lmo = float(np.sum(res.p_ug * sc.wem_price) * sc.dt)
        dso = float(np.sum(res.p_loss * sc.loss_cost) * sc.dt)
        assert res.costs["lmo"] == pytest.approx(lmo, rel=1e-6)
        assert res.costs["dso"] == pytest.approx(dso, rel=1e-6)
        for a, sched in res.schedules.items():
            expect = float(np.sum(sched.p_net * res.dlmp[sc.prosumers[0].bus_id if a == "a1" else 3]) * sc.dt)
            expect += sched.cost_devices
            assert res.costs["prosumers"][a] == pytest.approx(expect, rel=1e-6, abs=1e-9)

    def test_deterministic_replay_bit_identical(self):
        sc = small_scenario()
        a = run_clearing(sc, prosumer_solver="exact", log_messages=True)
        b = run_clearing(sc, prosumer_solver="exact", log_messages=True)
        assert a.trace.digest() == b.trace.digest()
        assert a.trace.messages == b.trace.messages
        for pid in a.schedules:
            assert np.array_equal(a.schedules[pid].p_net, b.schedules[pid].p_net)

    def test_schedule_order_invariance(self, monkeypatch):
        # the same prosumers listed in reverse are solved in reverse order
        # and clear to the same digest
        sc = small_scenario()
        orders = spy_batch_order(monkeypatch)
        a = run_clearing(sc, prosumer_solver="exact")
        n = len(orders)
        b = run_clearing(replace(sc, prosumers=tuple(reversed(sc.prosumers))),
                         prosumer_solver="exact")
        assert 0 < n < len(orders)
        assert all(o == ["a1", "a2"] for o in orders[:n])
        assert all(o == ["a2", "a1"] for o in orders[n:])
        assert a.trace.digest() == b.trace.digest()
        assert list(b.schedules) == list(a.schedules) == ["a1", "a2"]

    def test_iteration_replay_reproduces_outputs(self):
        # each pass's prosumer input, rebuilt from the message that carried
        # it, gives back the net power the pass recorded
        sc = small_scenario()
        res = run_clearing(sc, prosumer_solver="exact", log_messages=True)
        pros = {p.id: p for p in sc.prosumers}
        sent = {
            (msg["outer"], msg["recipient"]): ProsumerInput(**{
                f: None if v is None else np.array(v) for f, v in msg["payload"].items()
            })
            for msg in res.trace.messages if msg["type"] == "LmoToProsumer"
        }
        assert len(sent) == len(res.trace.replay) * len(pros)
        for io in res.trace.replay:
            for a, pn in io.p_net.items():
                redo = solve_subproblem_III(pros[a], sent[io.k, a], sc.admm, sc.dt, T, mode="exact")
                assert np.max(np.abs(redo.p_net - pn)) <= 1e-9

    def test_all_schedules_feasible(self):
        sc = small_scenario()
        res = run_clearing(sc, prosumer_solver="exact")
        for p in sc.prosumers:
            assert validate_schedule(p, res.schedules[p.id], sc.dt) == []

    def test_empty_market_degenerates_to_background_flow(self):
        sc = small_scenario()
        empty = Scenario(
            network=sc.network, prosumers=(), horizon=T, dt=1.0,
            wem_price=sc.wem_price, loss_cost=sc.loss_cost, admm=sc.admm,
            background=sc.background,
        )
        res = run_clearing(empty)
        assert res.status == "converged"
        assert res.outer_iterations == 1
        assert np.allclose(res.p_ug, empty.total_background() + res.p_loss_tilde)


class TestPrivacy:
    @pytest.mark.parametrize("cls, mtype", [(ProsumerInput, "LmoToProsumer"),
                                            (DsoInput, "LmoToDso")])
    def test_agent_input_is_its_message(self, cls, mtype):
        # an agent's solve sees exactly the fields its message may carry
        assert {f.name for f in fields(cls)} == MESSAGE_SCHEMA[mtype]

    def test_standard_run_passes(self):
        res = run_clearing(small_scenario(), prosumer_solver="exact", log_messages=True)
        rep = audit_privacy(res.trace)
        assert rep.ok
        assert rep.messages_checked > 0

    def test_instrumented_leak_fails_naming_field(self):
        res = run_clearing(small_scenario(), prosumer_solver="exact", log_messages=True)
        leaky = ConvergenceTrace(
            outer=res.trace.outer,
            inner=res.trace.inner,
            messages=[dict(m) for m in res.trace.messages],
        )
        bad = dict(leaky.messages[3])
        payload = dict(bad["payload"])
        payload["soc"] = [0.1, 0.2]
        bad["payload"] = payload
        leaky.messages[3] = bad
        rep = audit_privacy(leaky)
        assert not rep.ok
        assert any("soc" in issue for issue in rep.issues)

    def test_unknown_message_type_fails(self):
        trace = ConvergenceTrace(messages=[{
            "type": "DsoToProsumer", "sender": "dso", "recipient": "a",
            "outer": 1, "inner": 0, "payload": {},
        }])
        rep = audit_privacy(trace)
        assert not rep.ok

    def test_empty_trace_passes_vacuously_with_warning(self):
        rep = audit_privacy(ConvergenceTrace())
        assert rep.ok
        assert rep.warnings

    def test_bus_rejects_unknown_type(self):
        bus = MessageBus(log=True)
        with pytest.raises(ValueError):
            bus.send("a", "b", "SecretChannel", {}, outer=1)


def test_carried_network_state_stays_with_the_operator(monkeypatch):
    # a dense night clearing (a prosumer at every load point, exact search,
    # messages logged): the one network state the clearing carries from pass
    # to pass travels in no message and feeds no digest
    import lemclear.market as market

    sc = assemble_scenario(generate_tables(GeneratorSpec(seed=1, penetration=1.0, p_ev=0.0,
                                                         horizon=4)))
    carried = []
    solve = market.solve_dso_subproblem

    def spy(*args, starts=None, **kwargs):
        carried.append(starts)
        return solve(*args, starts=starts, **kwargs)

    monkeypatch.setattr(market, "solve_dso_subproblem", spy)
    statuses = []
    runs = spy_runs(monkeypatch, statuses)
    res = run_clearing(sc, prosumer_solver="exact", log_messages=True)
    assert res.status == "converged"
    # a few prosumer programs end their static run with a collapsed step:
    # the rescue settles each one, and the schedules and the network hold
    assert all(
        st == [OPTIMAL] for (_, pivoting, _), st in zip(runs, statuses) if pivoting
    )
    for p in sc.prosumers:
        assert validate_schedule(p, res.schedules[p.id], sc.dt) == []
    assert check_tightness(res.dso).ok
    state = carried[0]
    assert len(carried) > 1 and all(s is state for s in carried)
    assert len(state.hours) == sc.horizon
    assert audit_privacy(res.trace).ok
    # every payload field is one series over the hours, or one per bus
    for msg in res.trace.messages:
        for value in msg["payload"].values():
            series = value.values() if isinstance(value, dict) else [value]
            assert all(len(s) == sc.horizon for s in series if s is not None)
    # the trace holds none of the carried arrays: overwriting them leaves
    # its digest as it was
    digest = res.trace.digest()
    for hour in state.hours:
        for v in hour:
            v[:] = np.nan
    assert res.trace.digest() == digest


class TestTraceReproducibility:
    def test_stop_decisions_follow_recorded_residuals(self):
        sc = small_scenario(eps=1e-6)
        res = run_clearing(sc, prosumer_solver="exact")
        # outer: stopped exactly when the recorded dual step met eps1
        for rec in res.trace.outer[:-1]:
            assert rec.dual_step > sc.admm.eps1
        assert (res.status == "converged") == (
            res.trace.outer[-1].dual_step <= sc.admm.eps1
        )
        # inner: each pass before the last of an outer round exceeded eps2
        by_outer: dict[int, list] = {}
        for rec in res.trace.inner:
            by_outer.setdefault(rec.k, []).append(rec)
        for k, recs in by_outer.items():
            for rec in recs[:-1]:
                assert rec.loss_dual_step > sc.admm.eps2
            if len(recs) < sc.admm.max_inner:
                assert recs[-1].loss_dual_step <= sc.admm.eps2


@pytest.fixture(scope="module")
def full_day_dense():
    # the generator's full day with a prosumer at every load point
    return assemble_scenario(generate_tables(GeneratorSpec(seed=1, penetration=1.0)))


@pytest.mark.parametrize("name, how", [
    ("six_bus", "exact"), ("ieee69", "relax_repair"), ("six_bus", "centralized"),
    ("full_day_dense", "exact"),
])
def test_bundled_runs_never_reach_the_rescue(monkeypatch, request, name, how):
    # every cone program of these runs ends optimal or certified in its
    # first run, warm-started network hours and prosumer searches included,
    # so none takes the solver's rescue: a change that starts leaning on it
    # shows up here
    scenario = request.getfixturevalue(name)
    runs = spy_runs(monkeypatch)
    if how == "centralized":
        solve_centralized(scenario)
    else:
        run_clearing(scenario, prosumer_solver=how)
    assert runs and not any(pivoting for _, pivoting, _ in runs)


@pytest.mark.xfail(strict=True, raises=SolveFailed,
                   reason="the programs are posed unscaled on the power base: at base 200 "
                          "a network hour ends iter_limit without a certificate")
def test_clearing_does_not_depend_on_the_power_base():
    # the same SI feeder stated on two power bases is one physical market
    runs = {}
    for base in (10.0, 200.0):
        tables = generate_tables(GeneratorSpec(seed=1, penetration=0.3, p_ev=0.0, horizon=4))
        tables.manifest["base_mva"] = base
        runs[base] = run_clearing(assemble_scenario(tables), prosumer_solver="relax_repair")
    ref, other = runs[10.0], runs[200.0]
    assert other.status == ref.status == "converged"
    for key in ("lmo", "dso"):
        assert other.costs[key] == pytest.approx(ref.costs[key], rel=1e-6)
    assert other.costs["prosumers"] == pytest.approx(ref.costs["prosumers"], rel=1e-6)
