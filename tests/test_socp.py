import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from lemclear.socp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ConicProgram,
    NonNeg,
    SecondOrder,
    _Cones,
    _soc_step,
    _Stack,
    _Workspace,
    check_kkt,
    dual_sensitivity_probe,
    dump_program,
    _ipm_loop,
    solve_socp,
    solve_socp_batch,
)
from lifted import Free, lifted


def norm_cone_program():
    # min x0 subject to x0 >= ||(3, 4)||
    A = sp.csr_matrix(np.array([[0.0, 1, 0], [0, 0, 1]]))
    return lifted(
        c=np.array([1.0, 0, 0]), A=A, b=np.array([3.0, 4]), cones=(SecondOrder(3),)
    )


def simplex_lp():
    # min x1 + x2 subject to x1 + x2 = 1, x >= 0
    return lifted(
        c=np.array([1.0, 1.0]),
        A=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b=np.array([1.0]),
        cones=(NonNeg(2),),
    )


def seeded_programs(n_programs=50, seed=42):
    """Random feasible cone programs: b is built from an interior point, and
    a strictly positive quadratic diagonal keeps every instance bounded."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_programs):
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
        out.append(
            lifted(
                c=rng.normal(size=n),
                A=sp.csr_matrix(Am),
                b=Am @ x0,
                cones=tuple(cones),
                q=rng.uniform(0.1, 1.0, size=n),
            )
        )
    return out


class TestSolveBasics:
    def test_euclidean_norm(self):
        s = solve_socp(norm_cone_program(), tol=1e-8)
        assert s.status == OPTIMAL
        assert s.obj == pytest.approx(5.0, abs=1e-6)

    def test_equality_determined_free(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        prog = lifted(
            c=np.array([1.0, 1.0]),
            A=sp.csr_matrix(A),
            b=np.array([3.0, 5.0]),
            cones=(Free(2),),
        )
        s = solve_socp(prog, tol=1e-8)
        assert s.status == OPTIMAL
        assert np.allclose(s.x, np.linalg.solve(A, [3.0, 5.0]), atol=1e-8)

    def test_lp_dual_is_one(self):
        s = solve_socp(simplex_lp(), tol=1e-8)
        assert s.status == OPTIMAL
        assert s.obj == pytest.approx(1.0, abs=1e-7)
        assert s.y[0] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_classified(self):
        prog = lifted(
            c=np.array([1.0, 1.0]),
            A=sp.csr_matrix(np.array([[1.0, 1.0]])),
            b=np.array([-1.0]),
            cones=(NonNeg(2),),
        )
        assert solve_socp(prog, tol=1e-8).status == INFEASIBLE

    def test_unbounded_classified(self):
        prog = lifted(
            c=np.array([-1.0, 0.0]),
            A=sp.csr_matrix(np.array([[1.0, -1.0]])),
            b=np.array([0.0]),
            cones=(NonNeg(2),),
        )
        assert solve_socp(prog, tol=1e-8).status == UNBOUNDED

    def test_infeasibility_certified_through_cone_rows(self):
        # x >= 1 and x <= 0 stated as cone rows: the Farkas ray z = (1, 1)
        # has G'z = 0 and h'z = -1 < 0, with no equality rows at all
        prog = ConicProgram(
            c=np.array([1.0]), A=sp.csr_matrix((0, 1)), b=np.zeros(0),
            G=sp.csr_matrix([[-1.0], [1.0]]), h=np.array([-1.0, 0.0]), cones=(NonNeg(2),),
        )
        assert solve_socp(prog, tol=1e-8).status == INFEASIBLE
        # the certificate decides even when the primal iterates are larger
        ws = _Workspace(prog)
        verdict = ws.classify(np.zeros(1), np.zeros(0), np.full(2, 1e10), np.full(2, 1e9), 1)
        assert verdict.status == INFEASIBLE

    def test_zero_variable_program(self):
        prog = lifted(
            c=np.zeros(0), A=sp.csr_matrix((0, 0)), b=np.zeros(0), cones=(), c0=3.5
        )
        s = solve_socp(prog, tol=1e-8)
        assert s.status == OPTIMAL
        assert s.obj == 3.5

    def test_cone_free_inconsistent_equalities_infeasible(self):
        # x0 + x1 = 1 and x0 + x1 = 2, no cone rows
        prog = ConicProgram(
            c=np.array([1.0, 2.0]), A=sp.csr_matrix([[1.0, 1.0], [1.0, 1.0]]),
            b=np.array([1.0, 2.0]), G=sp.csr_matrix((0, 2)), h=np.zeros(0), cones=(),
            q=np.ones(2),
        )
        assert solve_socp(prog, tol=1e-9).status == INFEASIBLE

    def test_cone_free_unbounded_lp(self):
        # min x0 + 2 x1 subject to x0 + x1 = 3: x1 -> -inf
        prog = ConicProgram(
            c=np.array([1.0, 2.0]), A=sp.csr_matrix([[1.0, 1.0]]), b=np.array([3.0]),
            G=sp.csr_matrix((0, 2)), h=np.zeros(0), cones=(),
        )
        assert solve_socp(prog, tol=1e-9).status == UNBOUNDED

    def test_missing_quadratic_is_zeros(self):
        prog = simplex_lp()
        assert np.array_equal(prog.q, np.zeros(2))

    def test_deterministic(self):
        progs = seeded_programs(3, seed=5)
        for p in progs:
            a = solve_socp(p, tol=1e-8)
            b = solve_socp(p, tol=1e-8)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            solve_socp(simplex_lp(), tol=0.0)


class TestStrongDuality:
    def test_fifty_seeded_programs(self):
        tol = 1e-8
        for i, prog in enumerate(seeded_programs(50)):
            s = solve_socp(prog, tol=tol)
            assert s.status == OPTIMAL, f"program {i}: {s.status}"
            assert s.residuals["gap"] <= 10 * tol * (1 + abs(s.obj)), f"program {i}"

    def test_scaling_invariance(self):
        for i, prog in enumerate(seeded_programs(10, seed=7)):
            base = solve_socp(prog, tol=1e-9)
            alpha = 3.7
            scaled = replace(prog, c=prog.c * alpha, q=prog.q * alpha, c0=prog.c0 * alpha)
            s2 = solve_socp(scaled, tol=1e-9)
            assert s2.status == OPTIMAL
            assert np.allclose(s2.x, base.x, atol=1e-5), f"program {i}"
            assert np.allclose(s2.y, alpha * base.y, rtol=1e-4, atol=1e-5), f"program {i}"


class TestCheckKkt:
    def test_consistent_with_solver_contract(self):
        prog = norm_cone_program()
        s = solve_socp(prog, tol=1e-8)
        rep = check_kkt(prog, s)
        assert rep["primal"] <= 1e-7
        assert rep["dual"] <= 1e-7
        assert rep["gap"] <= 1e-6

    def test_perturbed_point_flagged(self):
        prog = norm_cone_program()
        s = solve_socp(prog, tol=1e-8)
        s.x = s.x.copy()
        s.x[1] += 1e-3
        rep = check_kkt(prog, s)
        assert rep["primal"] >= 1e-4

    def test_perturbed_slack_flagged(self):
        prog = norm_cone_program()
        s = solve_socp(prog, tol=1e-8)
        s.s = s.s.copy()
        s.s[0] -= 1e-3  # breaks G x + s = h and leaves the cone
        rep = check_kkt(prog, s)
        assert rep["primal"] >= 1e-4
        assert rep["cone"] >= 1e-4

    def test_zero_variable_program(self):
        prog = lifted(
            c=np.zeros(0), A=sp.csr_matrix((0, 0)), b=np.zeros(0), cones=()
        )
        rep = check_kkt(prog, solve_socp(prog))
        assert all(v == 0.0 for v in rep.values())

    def test_requires_optimal(self):
        prog = lifted(
            c=np.array([1.0, 1.0]),
            A=sp.csr_matrix(np.array([[1.0, 1.0]])),
            b=np.array([-1.0]),
            cones=(NonNeg(2),),
        )
        with pytest.raises(ValueError):
            check_kkt(prog, solve_socp(prog))


class TestSensitivityProbe:
    def test_lp_dual_certified(self):
        prog = simplex_lp()
        s = solve_socp(prog, tol=1e-9)
        pr = dual_sensitivity_probe(prog, s, 0, delta=1e-5, tol=1e-9)
        assert pr.conclusive
        assert pr.estimate == pytest.approx(1.0, abs=1e-4)
        assert pr.estimate == pytest.approx(pr.dual, rel=1e-3)

    def test_seeded_equality_duals(self):
        hits = 0
        for prog in seeded_programs(8, seed=11):
            s = solve_socp(prog, tol=1e-10)
            if s.status != OPTIMAL:
                continue
            idx = int(np.argmax(np.abs(s.y)))
            if abs(s.y[idx]) < 1e-4:
                continue
            pr = dual_sensitivity_probe(prog, s, idx, delta=1e-5, tol=1e-10)
            if not pr.conclusive:
                continue
            hits += 1
            assert pr.estimate == pytest.approx(pr.dual, rel=1e-3, abs=1e-6)
        assert hits >= 4  # most probes must actually run

    def test_zero_delta_rejected(self):
        prog = simplex_lp()
        s = solve_socp(prog)
        with pytest.raises(ValueError, match="delta must be positive"):
            dual_sensitivity_probe(prog, s, 0, delta=0.0)


def test_dump_program_grammar(tmp_path):
    prog = norm_cone_program()
    path = tmp_path / "prog.txt"
    dump_program(prog, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "VARS 3"
    assert text[1] == "EQS 2"
    assert any(line.startswith("CONES soc:3") for line in text)
    assert sum(1 for line in text if line.startswith("A ")) == prog.A.nnz
    assert sum(1 for line in text if line.startswith("G ")) == prog.G.nnz
    assert sum(1 for line in text if line.startswith("H ")) == len(prog.h)
    assert not any(line.startswith("CONES") and "free" in line for line in text)


def test_dump_program_q_line_only_when_nonzero(tmp_path):
    path = tmp_path / "prog.txt"
    prog = norm_cone_program()
    cases = ((None, []), (np.zeros(3), []), (np.array([0.0, 0.5, 0.0]), ["Q 0.0 0.5 0.0"]))
    for q, expected in cases:
        dump_program(replace(prog, q=q), str(path))
        assert [ln for ln in path.read_text().splitlines() if ln.startswith("Q ")] == expected


# ---------------------------------------------------------------------------
# Reference implementation: the per-block Jordan algebra and KKT assembly
# that the size-grouped versions in socp replaced, restated for cone rows.  The batched code sums in
# a different order, so it must agree to relative 1e-12 in the infinity norm
# (infinite entries exactly); the KKT pattern is pure data movement and must
# agree exactly.
# ---------------------------------------------------------------------------


def ref_jdet(u):
    return float(u[0] * u[0] - u[1:] @ u[1:])


def ref_jsqrt(u):
    det = ref_jdet(u)
    root = math.sqrt(max(det, 0.0))
    s = math.sqrt(max((u[0] + root) / 2.0, 1e-300))
    out = np.empty_like(u)
    out[0] = s
    out[1:] = u[1:] / (2.0 * s)
    return out


def ref_jinv(u):
    det = ref_jdet(u)
    out = np.empty_like(u)
    out[0] = u[0] / det
    out[1:] = -u[1:] / det
    return out


def ref_jprod(u, v):
    out = np.empty_like(u)
    out[0] = u @ v
    out[1:] = u[0] * v[1:] + v[0] * u[1:]
    return out


def ref_jdiv(lam, d):
    det = ref_jdet(lam)
    out = np.empty_like(d)
    out[0] = (lam[0] * d[0] - lam[1:] @ d[1:]) / det
    out[1:] = (d[1:] - out[0] * lam[1:]) / lam[0]
    return out


def ref_papply(u, v):
    det = ref_jdet(u)
    uv = u @ v
    out = 2.0 * uv * u
    out[0] -= det * v[0]
    out[1:] += det * v[1:]
    return out


def ref_pmat(u):
    k = u.shape[0]
    det = ref_jdet(u)
    m = 2.0 * np.outer(u, u)
    m[0, 0] -= det
    m[1:, 1:] += det * np.eye(k - 1)
    return m


def ref_soc_step(u, du):
    a2 = du[0] * du[0] - du[1:] @ du[1:]
    b1 = u[0] * du[0] - u[1:] @ du[1:]
    c0 = ref_jdet(u)
    disc = b1 * b1 - a2 * c0
    if a2 >= 0.0 and b1 >= 0.0:
        return math.inf
    if disc < 0.0:
        return math.inf
    rd = math.sqrt(disc)
    roots = []
    if abs(a2) > 1e-300:
        roots = [(-b1 - rd) / a2, (-b1 + rd) / a2]
    elif b1 < 0.0:
        roots = [-c0 / (2.0 * b1)]
    pos = [r for r in roots if r > 0.0]
    return min(pos) if pos else math.inf


class ReferenceCones:
    """One Python loop iteration per cone block."""

    def __init__(self, cones):
        self.blocks = []
        off = 0
        for cb in cones:
            self.blocks.append((cb.kind, off, cb.size))
            off += cb.size
        self.n = off
        self.nonneg_idx = np.array(
            [i for kind, o, k in self.blocks if kind == "nonneg" for i in range(o, o + k)],
            dtype=int,
        )
        self.soc_blocks = [(o, k) for kind, o, k in self.blocks if kind == "soc"]

    def membership_violation(self, u):
        worst = 0.0
        if len(self.nonneg_idx):
            worst = max(worst, float(-np.min(u[self.nonneg_idx]))) if np.min(u[self.nonneg_idx]) < 0 else worst
        for o, k in self.soc_blocks:
            blk = u[o : o + k]
            worst = max(worst, float(np.linalg.norm(blk[1:]) - blk[0]))
        return max(worst, 0.0)

    def compute_scaling(self, x, z):
        nn = self.nonneg_idx
        w_nn = np.sqrt(x[nn] / z[nn])
        lam = np.zeros(self.n)
        lam[nn] = np.sqrt(x[nn] * z[nn])
        soc_w = []
        for o, k in self.soc_blocks:
            xb, zb = x[o : o + k], z[o : o + k]
            t = ref_jsqrt(xb)
            u = ref_papply(t, zb)
            w = ref_papply(t, ref_jinv(ref_jsqrt(u)))
            wh = ref_jsqrt(w)
            whi = ref_jinv(wh)
            soc_w.append((w, wh, whi))
            lam[o : o + k] = ref_papply(whi, xb)
        return w_nn, soc_w, lam

    def w2_matrix(self, w_nn, soc_w):
        rows, cols, vals = [], [], []
        for i, idx in enumerate(self.nonneg_idx):
            rows.append(idx)
            cols.append(idx)
            vals.append(w_nn[i] * w_nn[i])
        for (o, k), (w, _, _) in zip(self.soc_blocks, soc_w):
            m = ref_pmat(w)
            for i in range(k):
                for j in range(k):
                    rows.append(o + i)
                    cols.append(o + j)
                    vals.append(m[i, j])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def apply_w(self, w_nn, soc_w, u, inverse):
        out = u.copy()
        nn = self.nonneg_idx
        out[nn] = u[nn] / w_nn if inverse else u[nn] * w_nn
        for (o, k), (_, wh, whi) in zip(self.soc_blocks, soc_w):
            out[o : o + k] = ref_papply(whi if inverse else wh, u[o : o + k])
        return out

    def jprod_all(self, u, v):
        out = np.zeros(self.n)
        nn = self.nonneg_idx
        out[nn] = u[nn] * v[nn]
        for o, k in self.soc_blocks:
            out[o : o + k] = ref_jprod(u[o : o + k], v[o : o + k])
        return out

    def jdiv_all(self, lam, d):
        out = np.zeros(self.n)
        nn = self.nonneg_idx
        out[nn] = d[nn] / lam[nn]
        for o, k in self.soc_blocks:
            out[o : o + k] = ref_jdiv(lam[o : o + k], d[o : o + k])
        return out

    def max_step(self, u, du):
        alpha = math.inf
        nn = self.nonneg_idx
        if len(nn):
            neg = du[nn] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-u[nn][neg] / du[nn][neg])))
        for o, k in self.soc_blocks:
            alpha = min(alpha, ref_soc_step(u[o : o + k], du[o : o + k]))
        return alpha


def reference_kkt(prog, W2, delta):
    """The three-block KKT matrix, built with sp.bmat."""
    n, m, p = prog.n_vars, prog.n_eq, len(prog.h)
    Q = sp.diags(prog.q) if prog.q is not None else sp.csr_matrix((n, n))
    return sp.bmat(
        [
            [Q + sp.identity(n) * delta, prog.A.T, prog.G.T],
            [prog.A, -sp.identity(m) * delta, None],
            [prog.G, None, -W2 - sp.identity(p) * delta],
        ],
        format="csc",
    )


def w2_matrix(cones, w2):
    """W^2 as a sparse matrix from the entries the solver computes."""
    return sp.csr_matrix((w2, (cones.w2_rows, cones.w2_cols)), shape=(cones.n, cones.n))


def assert_rel(new, ref):
    """Relative 1e-12 in the infinity norm; infinite entries match exactly."""
    new, ref = np.atleast_1d(np.asarray(new, float)), np.atleast_1d(np.asarray(ref, float))
    fin = np.isfinite(ref)
    assert np.array_equal(np.isfinite(new), fin)
    assert np.array_equal(new[~fin], ref[~fin])
    err = np.max(np.abs(new[fin] - ref[fin]), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(ref[fin]), initial=0.0)


def random_layout(rng):
    """NonNeg blocks and SOC blocks of sizes 2-5, interleaved."""
    blocks = [NonNeg(int(rng.integers(1, 4)))]
    blocks += [SecondOrder(int(rng.integers(2, 6))) for _ in range(int(rng.integers(4, 9)))]
    blocks += [NonNeg(int(rng.integers(1, 4)))]
    return tuple(blocks[i] for i in rng.permutation(len(blocks)))


def interior_point(rng, cones):
    u = np.empty(sum(cb.size for cb in cones))
    off = 0
    for cb in cones:
        if cb.kind == "soc":
            t = rng.normal(size=cb.size)
            t[0] = np.linalg.norm(t[1:]) + rng.uniform(0.1, 2)
        elif cb.kind == "nonneg":
            t = rng.uniform(0.1, 2, size=cb.size)
        else:
            t = rng.normal(size=cb.size)
        u[off : off + cb.size] = t
        off += cb.size
    return u


def spread(cones, per_group):
    """Scatter per-group (n_blocks, k) arrays into a full-length vector."""
    out = np.zeros(cones.n)
    for g, v in zip(cones.soc_groups, per_group):
        out[g] = v
    return out


def spread_ref(ref, per_block):
    out = np.zeros(ref.n)
    for (o, k), v in zip(ref.soc_blocks, per_block):
        out[o : o + k] = v
    return out


class TestBatchedConeAlgebra:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_block_reference(self, seed):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng)
        cones, ref = _Cones(layout), ReferenceCones(layout)
        x, z = interior_point(rng, layout), interior_point(rng, layout)
        w_nn, soc_w, lam = cones.compute_scaling(x, z)
        rw_nn, rsoc_w, rlam = ref.compute_scaling(x, z)
        assert_rel(w_nn, rw_nn)
        assert_rel(lam, rlam)
        for part in range(3):  # w, sqrt(w), sqrt(w)^-1
            assert_rel(
                spread(cones, [t[part] for t in soc_w]),
                spread_ref(ref, [t[part] for t in rsoc_w]),
            )
        W2 = ref.w2_matrix(rw_nn, rsoc_w)
        assert_rel(w2_matrix(cones, cones.w2_values(w_nn, soc_w)).toarray(), W2.toarray())
        v = rng.normal(size=cones.n)
        w_twice = cones.apply_w(w_nn, soc_w, cones.apply_w(w_nn, soc_w, v, False), False)
        assert_rel(w_twice, W2 @ v)
        for inverse in (False, True):
            assert_rel(
                cones.apply_w(w_nn, soc_w, v, inverse), ref.apply_w(rw_nn, rsoc_w, v, inverse)
            )
        assert_rel(cones.jprod_all(x, v), ref.jprod_all(x, v))
        assert_rel(cones.jdiv_all(lam, v), ref.jdiv_all(lam, v))
        for scale in (0.1, 1.0, 10.0):
            du = scale * rng.normal(size=cones.n)
            assert_rel(cones.max_step(x, du), ref.max_step(x, du))
            for g in cones.soc_groups:
                steps = _soc_step(x[g], du[g])
                assert_rel(steps, [ref_soc_step(x[row], du[row]) for row in g])
        # cone membership, inside and outside
        assert_rel(cones.membership_violation(x), ref.membership_violation(x))
        assert_rel(cones.membership_violation(v), ref.membership_violation(v))
        assert cones.membership_violation(v) > 0.0

    @pytest.mark.parametrize(
        "u, du",
        [
            ((2.0, 0.5, 0.0), (1.0, 0.1, 0.0)),  # a2 >= 0, b1 >= 0: unbounded
            ((1.0, 2.0, 0.0), (0.0, -0.1, 1.0)),  # negative discriminant, -b1/a2 > 0
            ((2.0, 0.0, 0.0), (-1.0, 1.0, 0.0)),  # a2 == 0: linear root
            ((2.0, 0.0, 0.0), (-1e-150, 5e-151, 0.0)),  # 0 < a2 < 1e-300: linear root
            ((1.0, 0.0, 0.0), (-1.0, 0.5, 0.0)),  # two positive roots
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # roots of both signs
        ],
    )
    def test_step_rule_branches(self, u, du):
        u, du = np.array(u), np.array(du)
        assert_rel(_soc_step(u[None, :], du[None, :]), [ref_soc_step(u, du)])

    def test_step_rule_branch_values(self):
        u = np.array([[2.0, 0.5, 0.0], [1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        du = np.array([[1.0, 0.1, 0.0], [0.0, -0.1, 1.0], [-1.0, 1.0, 0.0], [-1.0, 0.5, 0.0]])
        steps = _soc_step(u, du)
        assert steps[0] == math.inf and steps[1] == math.inf
        assert steps[2] == pytest.approx(1.0, rel=1e-15)
        assert steps[3] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_check_kkt_cone_matches_per_block_loop(self):
        for i, prog in enumerate(seeded_programs(50)):
            s = solve_socp(prog, tol=1e-8)
            ref = ReferenceCones(prog.cones)
            expect = max(ref.membership_violation(s.s), ref.membership_violation(s.z))
            assert_rel(check_kkt(prog, s)["cone"], expect)


def kkt_programs():
    rng = np.random.default_rng(17)

    def program(cones, m, with_q):
        n = sum(cb.size for cb in cones)
        A = sp.random(m, n, density=0.5, random_state=rng, format="csr")
        q = rng.uniform(0.0, 1.0, size=n) if with_q else None
        return lifted(c=rng.normal(size=n), A=A, b=rng.normal(size=m), cones=cones, q=q)

    return {
        "q=None": program((NonNeg(3), SecondOrder(3), SecondOrder(2)), 3, False),
        "no NonNeg": program((Free(2), SecondOrder(4), SecondOrder(3)), 4, True),
        "no SOC": program((Free(2), NonNeg(5)), 3, True),
        "leading Free": program(
            (Free(3), NonNeg(2), SecondOrder(4), SecondOrder(3), SecondOrder(4), SecondOrder(3)),
            9,
            True,
        ),
        "zero rows": program((NonNeg(2), SecondOrder(3)), 0, True),
    }


class TestKktPattern:
    @pytest.mark.parametrize("name", sorted(kkt_programs()))
    @pytest.mark.parametrize("delta", [1e-9, 1e-6])
    def test_refill_matches_bmat(self, name, delta):
        prog = kkt_programs()[name]
        ws = _Workspace(prog)
        rng = np.random.default_rng(3)
        s, z = interior_point(rng, prog.cones), interior_point(rng, prog.cones)
        w_nn, soc_w, _ = ws.cones.compute_scaling(s, z)
        w2 = ws.cones.w2_values(w_nn, soc_w)
        kkt = _Stack([ws]).kkt(w2, np.array([delta]))
        assert kkt.format == "csc" and kkt.has_canonical_format
        # K is stored under the workspace's ordering: K = K0[perm][:, perm]
        back = np.argsort(ws.perm)
        expect = reference_kkt(prog, w2_matrix(ws.cones, w2), delta)
        assert np.array_equal(kkt.toarray()[np.ix_(back, back)], expect.toarray())

    def test_refinement_targets_unregularized_system(self):
        prog = kkt_programs()["leading Free"]
        ws = _Workspace(prog)
        rng = np.random.default_rng(5)
        s, z = interior_point(rng, prog.cones), interior_point(rng, prog.cones)
        w_nn, soc_w, _ = ws.cones.compute_scaling(s, z)
        w2 = ws.cones.w2_values(w_nn, soc_w)
        stack = _Stack([ws])
        assert stack.factor(w2, np.array([1e-6]))
        n, m = prog.n_vars, prog.n_eq
        rhs = rng.normal(size=n + m + len(prog.h))
        dx, dy, dz = stack.solve(rhs[:n], rhs[n : n + m], rhs[n + m :])
        # one refinement step removes the delta error to first order
        exact = reference_kkt(prog, w2_matrix(ws.cones, w2), 0.0)
        res = exact @ np.concatenate([dx, dy, dz]) - rhs
        assert np.max(np.abs(res)) <= 1e-9 * np.max(np.abs(rhs))

    def test_ordering_computed_once_per_solve(self, monkeypatch):
        prog = seeded_programs(1, seed=3)[0]
        ws = _Workspace(prog)
        size = prog.n_vars + prog.n_eq + len(prog.h)
        assert np.array_equal(np.sort(ws.perm), np.arange(size))
        specs = []
        splu = spla.splu

        def spy(A, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        sol = solve_socp(prog, tol=1e-8)
        assert sol.status == OPTIMAL
        # one ordering, then one statically pivoted factor per iteration
        # that did not stop (no fallback or recovery on this program)
        assert specs.count("MMD_AT_PLUS_A") == 1
        assert specs.count("NATURAL") == sol.iterations - 1
        assert len(specs) == sol.iterations

    def test_static_pivot_stall_recovers_under_partial_pivoting(self):
        # equality rows and columns scaled over eight orders of magnitude:
        # diagonal pivots lose accuracy, the gap collapses while the primal
        # residual stays large, and solve_socp reruns with partial pivoting
        rng = np.random.default_rng(320)
        n, m = 7, 4
        A = rng.normal(size=(m, n))
        A *= 10 ** rng.uniform(-4, 4, size=(m, 1)) * 10 ** rng.uniform(-4, 4, size=(1, n))
        x0 = np.array([0.5, -0.5, 1.0, 1.0, 2.0, 0.5, -0.5])
        prog = lifted(
            c=rng.normal(size=n), A=sp.csr_matrix(A), b=A @ x0,
            cones=(Free(2), NonNeg(2), SecondOrder(3)),
        )
        with np.errstate(all="ignore"):
            static = _ipm_loop(_Workspace(prog), 1e-8, 200)
        assert static.status != OPTIMAL
        sol = solve_socp(prog, tol=1e-8)
        assert sol.status == OPTIMAL
        assert sol.iterations > static.iterations
        assert check_kkt(prog, sol)["dual"] <= 1e-8

    def test_solves_stay_independent(self):
        p = seeded_programs(1, seed=3)[0]
        q = kkt_programs()["leading Free"]
        first = solve_socp(p, tol=1e-8)
        solve_socp(q, tol=1e-8)
        again = solve_socp(p, tol=1e-8)
        assert first.iterations == again.iterations
        for attr in ("x", "y", "z"):
            assert np.array_equal(getattr(first, attr), getattr(again, attr))


# ---------------------------------------------------------------------------
# Lockstep batches: every member must come out exactly as it does alone.
# ---------------------------------------------------------------------------


def infeasible_program():
    # x0 + x1 = -1 with x >= 0
    return lifted(
        c=np.array([1.0, 1.0]), A=sp.csr_matrix([[1.0, 1.0]]), b=np.array([-1.0]),
        cones=(NonNeg(2),),
    )


def unbounded_program():
    # min -x0 subject to x0 = x1, x >= 0
    return lifted(
        c=np.array([-1.0, 0.0]), A=sp.csr_matrix([[1.0, -1.0]]), b=np.array([0.0]),
        cones=(NonNeg(2),),
    )


def static_pivot_stall_program():
    # the program of test_static_pivot_stall_recovers_under_partial_pivoting
    rng = np.random.default_rng(320)
    n, m = 7, 4
    A = rng.normal(size=(m, n))
    A *= 10 ** rng.uniform(-4, 4, size=(m, 1)) * 10 ** rng.uniform(-4, 4, size=(1, n))
    x0 = np.array([0.5, -0.5, 1.0, 1.0, 2.0, 0.5, -0.5])
    return lifted(
        c=rng.normal(size=n), A=sp.csr_matrix(A), b=A @ x0,
        cones=(Free(2), NonNeg(2), SecondOrder(3)),
    )


BATCH_POOL = seeded_programs(12, seed=11) + [
    infeasible_program(), unbounded_program(), static_pivot_stall_program()
]
SOLO: dict[int, object] = {}


def solo(i):
    if i not in SOLO:
        SOLO[i] = solve_socp(BATCH_POOL[i], tol=1e-8)
    return SOLO[i]


def assert_same_solution(got, alone):
    assert got.status == alone.status
    assert got.iterations == alone.iterations
    for attr in ("x", "y", "s", "z"):
        assert np.array_equal(getattr(got, attr), getattr(alone, attr))
    assert got.obj == alone.obj or (math.isnan(got.obj) and math.isnan(alone.obj))
    assert got.residuals == alone.residuals


class TestLockstepBatch:
    def test_pool_covers_every_ending(self):
        statuses = [solo(i).status for i in range(len(BATCH_POOL))]
        assert statuses[:12] == [OPTIMAL] * 12
        assert statuses[12:14] == [INFEASIBLE, UNBOUNDED]
        # the stalled program only reaches optimality in its pivoted rerun
        with np.errstate(all="ignore"):
            static = _ipm_loop(_Workspace(BATCH_POOL[14]), 1e-8, 200)
        assert static.status != OPTIMAL and statuses[14] == OPTIMAL

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 11), max_size=6),
        rnd=st.randoms(use_true_random=False),
    )
    def test_members_match_their_solo_solves(self, picks, rnd):
        members = picks + [12, 13, 14]
        rnd.shuffle(members)
        sols = solve_socp_batch([BATCH_POOL[i] for i in members], tol=1e-8)
        assert len(sols) == len(members)
        for i, sol in zip(members, sols):
            assert_same_solution(sol, solo(i))

    def test_empty_batch(self):
        assert solve_socp_batch([]) == []

    def test_shared_pattern_ordered_once(self, monkeypatch):
        # three programs on one pattern and two on others, one of them with
        # base's sizes and cones but an entry less in A: three orderings, and
        # one static factorization per round that did not finish every member
        base = seeded_programs(1, seed=3)[0]
        same = [replace(base, b=f * base.b, c=base.c + f) for f in (0.5, 1.0, 2.0)]
        A = base.A.tolil()
        A[0, 0] = 0.0
        A = A.tocsr()
        A.eliminate_zeros()
        sparser = replace(base, A=A, b=A @ solve_socp(base, tol=1e-8).x)
        progs = same + [sparser] + seeded_programs(1, seed=4)
        alone = [solve_socp(p, tol=1e-8) for p in progs]
        specs = []
        splu = spla.splu

        def spy(A, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        sols = solve_socp_batch(progs, tol=1e-8)
        assert [s.status for s in sols] == [OPTIMAL] * 5
        for got, ref in zip(sols, alone):
            assert_same_solution(got, ref)
        assert specs.count("MMD_AT_PLUS_A") == 3
        assert specs.count("NATURAL") == max(s.iterations for s in sols) - 1
        assert len(specs) == 3 + max(s.iterations for s in sols) - 1


    @pytest.mark.parametrize("singular_at", [(-1e-9,), (-1e-9, -1e-6)])
    def test_singular_block_settled_as_alone(self, monkeypatch, singular_at):
        # SuperLU is made to fail on any matrix holding a y-block diagonal
        # of -delta for the listed deltas: only the member with equality
        # rows has one, so in a batch only its block is singular
        splu = spla.splu

        def fake(A, **kwargs):
            if np.isin(A.diagonal(), singular_at).any():
                raise RuntimeError("Factor is exactly singular")
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", fake)
        bound = ConicProgram(
            c=np.array([1.0]), A=sp.csr_matrix((0, 1)), b=np.zeros(0),
            G=sp.csr_matrix([[-1.0]]), h=np.array([-1.0]), cones=(NonNeg(1),),
        )
        alone = {"bound": solve_socp(bound, tol=1e-8), "lp": solve_socp(simplex_lp(), tol=1e-8)}
        assert alone["bound"].status == OPTIMAL
        assert (alone["lp"].status == OPTIMAL) == (len(singular_at) == 1)
        together = solve_socp_batch([simplex_lp(), bound, simplex_lp()], tol=1e-8)
        for got, name in zip(together, ("lp", "bound", "lp")):
            assert_same_solution(got, alone[name])


class TestCertifiedVerdicts:
    @pytest.mark.parametrize(
        "make, status", [(infeasible_program, INFEASIBLE), (unbounded_program, UNBOUNDED)]
    )
    def test_certified_verdict_makes_one_ipm_run(self, monkeypatch, make, status):
        import lemclear.socp as socp

        runs = []
        loop = socp._ipm_loop

        def spy(members, *args, **kwargs):
            runs.append(kwargs.get("pivoting", False))
            return loop(members, *args, **kwargs)

        monkeypatch.setattr(socp, "_ipm_loop", spy)
        sol = solve_socp(make(), tol=1e-8)
        assert sol.status == status
        assert runs == [False]

    def test_uncertified_ending_is_rerun_alone(self, monkeypatch):
        import lemclear.socp as socp

        runs = []
        loop = socp._ipm_loop

        def spy(members, *args, **kwargs):
            runs.append((len(members), kwargs.get("pivoting", False)))
            return loop(members, *args, **kwargs)

        monkeypatch.setattr(socp, "_ipm_loop", spy)
        progs = [static_pivot_stall_program(), infeasible_program(), norm_cone_program()]
        sols = solve_socp_batch(progs, tol=1e-8)
        assert [s.status for s in sols] == [OPTIMAL, INFEASIBLE, OPTIMAL]
        assert runs == [(3, False), (1, True)]
