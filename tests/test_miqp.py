import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from lemclear.miqp import (
    MixedBinaryProgram,
    RepairHints,
    mbp_search,
    relax_and_repair,
    restore_fixed,
    solve_mbp,
    solve_searches,
    with_fixed_variables,
)
from lemclear.socp import ITER_LIMIT, NonNeg, OPTIMAL, solve_socp, solve_socp_batch
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

    def test_search_stopped_before_an_incumbent_is_not_infeasible(self):
        # a node limit reached with no incumbent proves nothing about the program
        (res,) = solve_searches([mbp_search(gate_program(), node_limit=0)])
        assert res.status == "iter_limit"
        assert res.x_incumbent is None and res.nodes_explored == 0

    def test_exhausted_search_without_incumbent_is_infeasible(self):
        # x0 + x1 = -1 with x >= 0: the root is infeasible, no node stays open
        prog = lifted(
            c=np.zeros(2), A=sp.csr_matrix([[1.0, 1.0]]), b=np.array([-1.0]), cones=(NonNeg(2),)
        )
        (res,) = solve_searches([mbp_search(MixedBinaryProgram(prog, (0, 1)))])
        assert res.status == "infeasible"
        assert res.x_incumbent is None and res.nodes_explored == 1

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


@pytest.mark.parametrize("pinned", [0, 1])
def test_uncertified_node_proves_nothing(monkeypatch, pinned):
    # the first relaxation with ``pinned`` binaries pinned (the root, or the
    # first child) is made to end iter_limit without a certificate: its
    # branch keeps its parent's bound, and the search ends iter_limit, not
    # infeasible or optimal
    import lemclear.miqp as miqp

    prob = binary_quadratic([0.3, 0.6, 0.45])
    n = prob.relaxation.n_vars
    hit = []

    def uncertified(progs, **kw):
        sols = solve_socp_batch(progs, **kw)
        for i, prog in enumerate(progs):
            if prog.n_vars == n - pinned and not hit:
                hit.append(i)
                sols[i] = replace(sols[i], status=ITER_LIMIT)
        return sols

    monkeypatch.setattr(miqp, "solve_socp_batch", uncertified)
    res = solve_mbp(prob, mip_gap=1e-9)
    assert hit and res.status == ITER_LIMIT
    if pinned == 0:
        assert res.x_incumbent is None and res.nodes_explored == 1
        assert res.bound == -np.inf
    else:
        # the child's parent is the root: its relaxation is the bound
        assert res.x_incumbent is not None
        assert res.bound == solve_socp(prob.relaxation).obj < res.obj_incumbent
        assert res.gap > 1e-9


@pytest.mark.parametrize(
    "make", [gate_program, lambda: binary_quadratic([0.3, 0.6, 0.45])],
    ids=["rounded re-solve", "child nodes"],
)
def test_pinned_starts_fit_their_rows(monkeypatch, make):
    # a rounded re-solve or a child node starts from a relaxation with more
    # columns; its slacks are refitted to the pinned program's own rows, so
    # they lie in the cone and close every row on which h - Gx does
    import lemclear.miqp as miqp

    prob = make()
    n = prob.relaxation.n_vars
    checked = []

    def fitted(progs, **kw):
        for prog, start in zip(progs, kw.get("starts") or [None] * len(progs)):
            if start is not None and prog.n_vars < n:
                x, _, s, _ = start
                slack = prog.h - prog.G @ x
                assert s.min() >= 0.0
                assert np.abs(prog.G @ x + s - prog.h)[slack >= 0.0].max() <= 1e-12
                checked.append(prog.n_vars)
        return solve_socp_batch(progs, **kw)

    monkeypatch.setattr(miqp, "solve_socp_batch", fitted)
    res = solve_mbp(prob, mip_gap=1e-9)
    assert res.status == OPTIMAL and checked
