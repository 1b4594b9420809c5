"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity against its pinned tolerance."""

import itertools
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from lemclear.dso import DsoInput, assemble_branch_flow, hour_programs
from lemclear.io_cli import GeneratorSpec, generate_scenario
from lemclear.market import ConvergenceTrace, audit_privacy, run_clearing
from lemclear.miqp import MixedBinaryProgram, solve_mbp
from lemclear.oracle import solve_centralized
from lemclear.prosumer import validate_schedule
from lemclear.socp import (
    NonNeg,
    OPTIMAL,
    SecondOrder,
    solve_socp,
)
from certify import dual_sensitivity_probe, spy_batch_order
from lifted import Free, lifted


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def distributed_total(result) -> float:
    return (
        result.costs["lmo"]
        + result.costs["dso"]
        + sum(s.cost_devices for s in result.schedules.values())
    )


def test_01_convex_equivalence(six_bus, six_bus_run):
    res = six_bus_run
    assert res.status == "converged"
    cen = solve_centralized(six_bus, binaries=res)
    gap = abs(distributed_total(res) - cen.objective) / (1.0 + abs(cen.objective))
    ok = gap <= 1e-3 and res.wall_seconds < 60.0
    _report("1 convex equivalence", ok, f"rel gap {gap:.2e}, {res.wall_seconds:.1f}s")
    assert gap <= 1e-3
    assert res.wall_seconds < 60.0


def test_02_convergence_envelope(ieee69_run):
    res = ieee69_run
    ok = (
        res.status == "converged"
        and res.outer_iterations <= 20
        and all(n <= 10 for n in res.inner_iterations_per_outer)
        and res.wall_seconds < 600.0
    )
    _report(
        "2 convergence envelope",
        ok,
        f"status={res.status}, outer={res.outer_iterations}, "
        f"inner={res.inner_iterations_per_outer}, {res.wall_seconds:.0f}s",
    )
    assert res.status == "converged"
    assert res.outer_iterations <= 20
    assert all(n <= 10 for n in res.inner_iterations_per_outer)
    assert res.wall_seconds < 600.0


def test_03_dlmp_validity(six_bus, six_bus_run):
    res = six_bus_run
    sc = six_bus
    p_node = {n: sc.background_at(n).copy() for n in sc.network.bus_ids()}
    for p in sc.prosumers:
        p_node[p.bus_id] = p_node[p.bus_id] + res.schedules[p.id].p_net
    bf = assemble_branch_flow(sc.network)
    hours = hour_programs(
        bf,
        DsoInput(p_node, res.p_loss_tilde, res.lambda_loss),
        sc.loss_cost * sc.dt,
        sc.admm.rho_prime,
    )
    pairs = [(b, t) for b in (2, 3, 4, 5, 6) for t in (8, 18)]
    sols = {t: solve_socp(hours[t], tol=1e-10) for t in (8, 18)}
    worst = 0.0
    for bus, t in pairs:
        sol = sols[t]
        assert sol.status == OPTIMAL
        probe = dual_sensitivity_probe(hours[t], sol, bf.balance_rows[bus], delta=1e-4, tol=1e-10)
        assert probe.conclusive, f"probe inconclusive at bus {bus} hour {t}"
        reported = res.dlmp[bus][t] * sc.dt
        rel = abs(probe.estimate - reported) / max(abs(reported), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-3
    _report("3 DLMP validity", ok, f"10 probes, worst rel err {worst:.2e}")
    assert worst <= 1e-3


def test_04_relaxation_tightness(six_bus_run, ieee69_run, ieee69_selfish):
    worst = max(
        float(six_bus_run.dso.tightness.max()),
        float(ieee69_run.dso.tightness.max()),
        float(ieee69_selfish.meta["tightness_max"]),
    )
    ok = worst <= 1e-6
    _report("4 relaxation tightness", ok, f"max residual {worst:.2e}")
    assert worst <= 1e-6


def test_05_directional_welfare(ieee69_run, ieee69_selfish):
    lmo_ok = ieee69_run.costs["lmo"] <= ieee69_selfish.costs["lmo"]
    dso_ok = ieee69_run.costs["dso"] <= ieee69_selfish.costs["dso"]
    lmo_red = ieee69_selfish.costs["lmo"] - ieee69_run.costs["lmo"]
    dso_red = ieee69_selfish.costs["dso"] - ieee69_run.costs["dso"]
    _report(
        "5 directional welfare",
        lmo_ok and dso_ok,
        f"coordination saves LMO {lmo_red:+.4f}, DSO {dso_red:+.4f} "
        f"({100 * lmo_red / ieee69_selfish.costs['lmo']:.3f}% / "
        f"{100 * dso_red / ieee69_selfish.costs['dso']:.3f}%)",
    )
    assert lmo_ok
    assert dso_ok


def test_06_penetration_monotonicity():
    costs = []
    for pen in (0.45, 0.60, 0.75):
        sc = generate_scenario(GeneratorSpec(seed=1, penetration=pen))
        res = run_clearing(sc, prosumer_solver="relax_repair")
        assert res.status == "converged"
        costs.append((pen, res.costs["lmo"], res.costs["dso"]))
    lmo_ok = all(b[1] <= a[1] + 1e-9 for a, b in zip(costs, costs[1:]))
    dso_ok = all(b[2] <= a[2] + 1e-9 for a, b in zip(costs, costs[1:]))
    detail = ", ".join(f"{p:.0%}: lmo={l:.2f} dso={d:.2f}" for p, l, d in costs)
    _report("6 penetration monotonicity", lmo_ok and dso_ok, detail)
    assert lmo_ok
    assert dso_ok


def test_07_privacy_audit(six_bus_run):
    rep = audit_privacy(six_bus_run.trace)
    leaky = ConvergenceTrace(messages=[dict(m) for m in six_bus_run.trace.messages])
    bad = dict(leaky.messages[0])
    bad["payload"] = {**bad["payload"], "soc": [1.0]}
    leaky.messages[0] = bad
    leak_rep = audit_privacy(leaky)
    ok = rep.ok and not leak_rep.ok and any("soc" in i for i in leak_rep.issues)
    _report(
        "7 privacy audit",
        ok,
        f"{rep.messages_checked} messages clean; instrumented leak caught: "
        f"{not leak_rep.ok}",
    )
    assert rep.ok
    assert not leak_rep.ok
    assert any("soc" in i for i in leak_rep.issues)


def test_08_feasibility_suite(six_bus, six_bus_run, ieee69, ieee69_run, ieee69_selfish):
    checked = 0
    for sc, result in ((six_bus, six_bus_run), (ieee69, ieee69_run)):
        pros = {p.id: p for p in sc.prosumers}
        for pid, sched in result.schedules.items():
            bad = validate_schedule(pros[pid], sched, sc.dt, tol=1e-6)
            assert bad == [], f"{pid}: {bad[:3]}"
            checked += 1
    pros = {p.id: p for p in ieee69.prosumers}
    for pid, sched in ieee69_selfish.schedules.items():
        bad = validate_schedule(pros[pid], sched, ieee69.dt, tol=1e-6)
        assert bad == [], f"selfish {pid}: {bad[:3]}"
        checked += 1
    _report("8 feasibility suite", True, f"{checked} schedules re-checked, all clean")


def test_09_solver_unit_suite():
    # strong duality on 50 seeded cone programs
    rng = np.random.default_rng(42)
    tol = 1e-8
    worst_gap = 0.0
    for _ in range(50):
        cones = []
        if rng.integers(0, 3):
            cones.append(Free(int(rng.integers(1, 3))))
        cones.append(NonNeg(int(rng.integers(1, 6))))
        for _ in range(int(rng.integers(0, 3))):
            cones.append(SecondOrder(int(rng.integers(2, 5))))
        n = sum(c.size for c in cones)
        m = int(rng.integers(1, max(2, n // 2 + 1)))
        Am = rng.normal(size=(m, n))
        x0 = np.zeros(n)
        off = 0
        for cb in cones:
            if cb.kind == "free":
                x0[off : off + cb.size] = rng.normal(size=cb.size)
            elif cb.kind == "nonneg":
                x0[off : off + cb.size] = rng.uniform(0.5, 2, size=cb.size)
            else:
                t = rng.normal(size=cb.size)
                t[0] = np.linalg.norm(t[1:]) + rng.uniform(0.5, 2)
                x0[off : off + cb.size] = t
            off += cb.size
        prog = lifted(
            c=rng.normal(size=n), A=sp.csr_matrix(Am), b=Am @ x0,
            cones=tuple(cones), q=rng.uniform(0.1, 1.0, size=n),
        )
        s = solve_socp(prog, tol=tol)
        assert s.status == OPTIMAL
        worst_gap = max(worst_gap, s.residuals["gap"] / (10 * tol * (1 + abs(s.obj))))
    assert worst_gap <= 1.0

    # branch and bound vs exhaustive enumeration up to 12 binaries
    def binary_quadratic(targets):
        k = len(targets)
        t = np.asarray(targets, dtype=float)
        rows = np.zeros((k, 2 * k))
        for i in range(k):
            rows[i, i] = 1.0
            rows[i, k + i] = 1.0
        prog = lifted(
            c=np.concatenate([-2 * t, np.zeros(k)]),
            A=sp.csr_matrix(rows),
            b=np.ones(k),
            cones=(NonNeg(2 * k),),
            q=np.concatenate([2 * np.ones(k), np.zeros(k)]),
            c0=float(t @ t),
        )
        return MixedBinaryProgram(prog, tuple(range(k)))

    rng = np.random.default_rng(123)
    worst_dev = 0.0
    n_checked = 0
    for _ in range(8):
        k = int(rng.integers(4, 13))
        t = rng.uniform(0, 1, k)
        res = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
        best = min(
            sum((xi - ti) ** 2 for xi, ti in zip(xs, t))
            for xs in itertools.product([0, 1], repeat=k)
        )
        worst_dev = max(worst_dev, abs(res.obj_incumbent - best))
        n_checked += 1
    ok = worst_dev <= 1e-6
    _report(
        "9 solver unit suite",
        ok,
        f"50 duality checks (worst gap ratio {worst_gap:.2f}), "
        f"{n_checked} enumerations (worst dev {worst_dev:.1e})",
    )
    assert worst_dev <= 1e-6


def reversed_prosumers(sc):
    """The scenario with its prosumers listed in reverse."""
    return replace(sc, prosumers=tuple(reversed(sc.prosumers)))


def test_10_determinism(six_bus, ieee69, ieee69_run, monkeypatch):
    a = run_clearing(six_bus, prosumer_solver="exact", log_messages=True)
    b = run_clearing(six_bus, prosumer_solver="exact", log_messages=True)
    repeat_ok = a.trace.digest() == b.trace.digest() and a.trace.messages == b.trace.messages
    # the prosumers listed in reverse: every batch holds them in reverse order
    orders = spy_batch_order(monkeypatch)
    c = run_clearing(reversed_prosumers(six_bus), prosumer_solver="exact")
    order_ok = a.trace.digest() == c.trace.digest()
    n = len(orders)
    d = run_clearing(reversed_prosumers(ieee69), prosumer_solver="relax_repair")
    order69_ok = d.trace.digest() == ieee69_run.trace.digest()
    ids, ids69 = (sorted(p.id for p in sc.prosumers) for sc in (six_bus, ieee69))
    assert 0 < n < len(orders)
    assert all(o == ids[::-1] for o in orders[:n])
    assert all(o == ids69[::-1] for o in orders[n:])
    ok = repeat_ok and order_ok and order69_ok
    _report(
        "10 determinism",
        ok,
        f"repeat={repeat_ok}, order(6)={order_ok}, order(69)={order69_ok}",
    )
    assert repeat_ok
    assert order_ok
    assert order69_ok
