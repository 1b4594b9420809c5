import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from lemclear.miqp import (
    MixedBinaryProgram,
    RepairHints,
    relax_and_repair,
    restore_fixed,
    solve_mbp,
    with_fixed_variables,
)
from lemclear.socp import NonNeg, OPTIMAL, solve_socp, solve_socp_batch
from lifted import lifted


def binary_quadratic(targets):
    """min sum (x_i - t_i)^2 over x_i in {0,1}; vars then upper-bound slacks."""
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


def enumerate_optimum(targets):
    return min(
        sum((xi - ti) ** 2 for xi, ti in zip(xs, targets))
        for xs in itertools.product([0, 1], repeat=len(targets))
    )


def gate_program(reward=(1.0, 1.0), cap=2.0):
    """Two gated powers with an exclusivity constraint; rewarding both sides
    makes the relaxation want simultaneous operation."""
    c = np.array([-reward[0], -reward[1], 0, 0, 0, 0, 0])
    rows = np.array(
        [
            [1.0, 0, -cap, 0, 1, 0, 0],
            [0.0, 1, 0, -cap, 0, 1, 0],
            [0.0, 0, 1, 1, 0, 0, 1],
        ]
    )
    prog = lifted(
        c=c,
        A=sp.csr_matrix(rows),
        b=np.array([0.0, 0, 1]),
        cones=(NonNeg(7),),
        q=np.full(7, 0.01),
    )
    hints = RepairHints(gates={2: (0,), 3: (1,)}, exclusive_pairs=((2, 3),))
    return MixedBinaryProgram(prog, (2, 3), hints)


class TestSolveMbp:
    def test_no_binaries_degenerates_to_socp(self):
        prob = binary_quadratic([0.4])
        prob = MixedBinaryProgram(prob.relaxation, ())
        res = solve_mbp(prob)
        direct = solve_socp(prob.relaxation)
        assert res.status == OPTIMAL
        assert res.obj_incumbent == pytest.approx(direct.obj, abs=1e-10)

    def test_single_binary_rounds_down(self):
        res = solve_mbp(binary_quadratic([0.4]), mip_gap=1e-9)
        assert res.status == OPTIMAL
        assert res.x_incumbent[0] == pytest.approx(0.0, abs=1e-6)
        assert res.obj_incumbent == pytest.approx(0.16, abs=1e-6)

    def test_four_binaries_match_enumeration(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 1, 4)
        res = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
        assert res.obj_incumbent == pytest.approx(enumerate_optimum(t), abs=1e-6)

    def test_twelve_binary_instances_match_enumeration(self):
        rng = np.random.default_rng(123)
        for trial in range(6):
            k = int(rng.integers(6, 13))
            t = rng.uniform(0, 1, k)
            res = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
            assert res.status == OPTIMAL, f"trial {trial}"
            assert res.obj_incumbent == pytest.approx(
                enumerate_optimum(t), abs=1e-6
            ), f"trial {trial}"

    def test_incumbent_integrality(self):
        res = solve_mbp(gate_program(), mip_gap=1e-9)
        for i in (2, 3):
            assert abs(res.x_incumbent[i] - round(res.x_incumbent[i])) <= 1e-6

    def test_node_limit_reports_honest_gap(self):
        rng = np.random.default_rng(3)
        prob = binary_quadratic(rng.uniform(0.4, 0.6, 10))
        res = solve_mbp(prob, mip_gap=1e-12, node_limit=3)
        assert res.nodes_explored <= 3
        assert res.status in ("iter_limit", OPTIMAL)
        if res.status == "iter_limit":
            assert np.isfinite(res.gap)

    def test_bound_below_incumbent(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            t = rng.uniform(0, 1, 6)
            res = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
            assert res.bound <= res.obj_incumbent + 1e-7

    def test_determinism(self):
        t = np.random.default_rng(11).uniform(0, 1, 8)
        a = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
        b = solve_mbp(binary_quadratic(t), mip_gap=1e-9)
        assert a.nodes_explored == b.nodes_explored
        assert np.array_equal(a.x_incumbent, b.x_incumbent)


class TestRelaxAndRepair:
    def test_integral_relaxation_is_identity(self):
        prob = binary_quadratic([0.9])  # optimum x=1 is already integral-ish
        rr = relax_and_repair(prob)
        bb = solve_mbp(prob, mip_gap=1e-9)
        assert rr.obj_incumbent == pytest.approx(bb.obj_incumbent, abs=1e-6)

    def test_netting_zeroes_one_side(self):
        rr = relax_and_repair(gate_program())
        x = rr.x_incumbent
        assert x[2] * x[3] <= 1e-9  # exclusivity after repair
        assert rr.status == OPTIMAL

    def test_repair_bounded_by_bnb_on_seeded_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            k = int(rng.integers(2, 7))
            t = rng.uniform(0, 1, k)
            prob = binary_quadratic(t)
            rr = relax_and_repair(prob)
            bb = solve_mbp(prob, mip_gap=1e-9)
            assert rr.obj_incumbent >= bb.obj_incumbent - 1e-7, f"trial {trial}"

    def test_infeasible_repair_falls_back(self):
        # forcing x0 + x1 = 1 with both gates closed by rounding is repaired
        # through the full search rather than failing
        c = np.array([0.0, 0, 0, 0])
        rows = np.array([[1.0, 1, 0, 0], [1.0, 0, 1, 0], [0.0, 1, 0, 1]])
        prog = lifted(
            c=c, A=sp.csr_matrix(rows), b=np.array([1.0, 1, 1]),
            cones=(NonNeg(4),), q=np.full(4, 1.0),
        )
        prob = MixedBinaryProgram(prog, (0, 1))
        res = relax_and_repair(prob)
        assert res.status == OPTIMAL
        total = res.x_incumbent[0] + res.x_incumbent[1]
        assert total == pytest.approx(1.0, abs=1e-6)


def test_with_fixed_variables_substitutes_columns():
    prob = binary_quadratic([0.4, 0.6])
    prog = prob.relaxation
    fixed = {0: 1.0, 1: 0.0}
    sub = with_fixed_variables(prog, fixed)
    assert sub.n_vars == prog.n_vars - len(fixed)
    assert sub.n_eq == prog.n_eq and sub.G.shape[0] == prog.G.shape[0]
    assert sub.cones == prog.cones
    s = solve_socp(sub)
    assert s.status == OPTIMAL
    x = restore_fixed(s.x, fixed)
    assert x[0] == 1.0 and x[1] == 0.0
    assert np.array_equal(np.delete(x, [0, 1]), s.x)
    assert s.obj == pytest.approx(prog.objective(x), abs=1e-12)
    assert s.obj == pytest.approx((1 - 0.4) ** 2 + 0.6**2, abs=1e-7)


def test_gap_closed_root_reports_its_relaxation_as_bound():
    # the root relaxation (-1.9875) is within 1% of the repaired incumbent
    # (-1.975), so the search closes it and reports it as the bound
    res = solve_mbp(gate_program(), mip_gap=0.01)
    assert res.status == OPTIMAL
    assert res.obj_incumbent == pytest.approx(-1.975, abs=1e-6)
    assert res.bound == pytest.approx(-1.9875, abs=1e-6)
    assert res.gap == pytest.approx(
        abs(res.bound - res.obj_incumbent) / (1 + abs(res.obj_incumbent)), rel=1e-12
    )
    assert res.gap > 0


def test_relax_and_repair_infeasible_relaxation_solves_once(monkeypatch):
    import lemclear.miqp as miqp

    calls = []

    def counted(progs, **kw):
        calls.extend(prog.n_vars for prog in progs)
        return solve_socp_batch(progs, **kw)

    monkeypatch.setattr(miqp, "solve_socp_batch", counted)
    # x0 + x1 = -1 with x >= 0
    prog = lifted(
        c=np.zeros(2), A=sp.csr_matrix([[1.0, 1.0]]), b=np.array([-1.0]), cones=(NonNeg(2),)
    )
    res = relax_and_repair(MixedBinaryProgram(prog, (0, 1)))
    assert res.status == "infeasible" and res.x_incumbent is None
    assert len(calls) == 1
