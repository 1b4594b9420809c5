import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from lemclear.socp import (
    INFEASIBLE,
    ITER_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    _MAX_ITER,
    _WARM_MAX_ITER,
    _WARM_SHIFT,
    ConicProgram,
    NonNeg,
    SecondOrder,
    _Cones,
    _DIAGONAL_PIVOTS,
    _jdet,
    _jdiv,
    _jprod,
    _jprods,
    _members,
    _newton_step,
    _nt_product,
    _Pattern,
    _pattern_key,
    _reflect,
    _rowdot,
    _Scaling,
    _soc_step,
    _Stack,
    _classify,
    _ipm_loop,
    solve_socp,
    solve_socp_batch,
)
from certify import check_kkt, dual_sensitivity_probe, membership_violation, spy_runs
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
        point = (np.zeros(1), np.zeros(0), np.full(2, 1e10), np.full(2, 1e9))
        r_d, r_p, r_g, ct_yz = _Stack(_members([prog])).residuals(*point)
        norms = [np.abs(np.concatenate([r_p, r_g])).max(), np.abs(r_d).max(), np.abs(ct_yz).max()]
        assert _classify(prog, point, norms) == INFEASIBLE

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


# ---------------------------------------------------------------------------
# Reference implementation: the per-block Jordan algebra and KKT assembly
# that the size-grouped versions in socp replaced, restated for cone rows.
# Its NT scaling is the Jordan-algebra derivation W = P(w^(1/2)) with
# w = P(s^(1/2)) (P(s^(1/2)) z)^(-1/2), which socp replaced by the closed
# form.  The batched code sums in a different order, so it must agree to
# relative 1e-12 in the infinity norm (infinite entries exactly); the KKT
# pattern is pure data movement and must agree exactly.
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


def scaling_matrix(cones, sc, inverse=False):
    """W (or W^-1) of the scaling ``sc`` as a dense matrix, column by column."""
    return np.column_stack([
        cones.flat(sc.apply(cones.blocks(col), inverse)) for col in np.eye(cones.n)
    ])


def near_boundary_point(rng, cones, gap):
    """Random SOC blocks with u0 = ||ub|| (1 + gap), their sizes spread over
    six orders of magnitude."""
    u = np.empty(sum(cb.size for cb in cones))
    off = 0
    for cb in cones:
        t = rng.normal(size=cb.size) * 10.0 ** rng.uniform(-3.0, 3.0)
        t[0] = np.linalg.norm(t[1:]) * (1.0 + gap)
        u[off : off + cb.size] = t
        off += cb.size
    return u


class TestBatchedConeAlgebra:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_block_reference(self, seed):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng)
        cones, ref = _Cones(layout), ReferenceCones(layout)
        x, z = interior_point(rng, layout), interior_point(rng, layout)
        sc = _Scaling(cones, x, z)
        rw_nn, rsoc_w, rlam = ref.compute_scaling(x, z)
        assert_rel(sc.w_nn, rw_nn)
        assert_rel(cones.flat(sc.lam), rlam)
        W2 = ref.w2_matrix(rw_nn, rsoc_w)
        assert_rel(w2_matrix(cones, sc.w2_values()).toarray(), W2.toarray())
        v = rng.normal(size=cones.n)
        vb = cones.blocks(v)
        assert_rel(cones.flat(sc.apply(sc.apply(vb))), W2 @ v)
        for inverse in (False, True):
            assert_rel(
                cones.flat(sc.apply(vb, inverse)), ref.apply_w(rw_nn, rsoc_w, v, inverse)
            )
            # W and W^-1 as matrices, column by column
            assert_rel(
                scaling_matrix(cones, sc, inverse),
                np.column_stack([
                    ref.apply_w(rw_nn, rsoc_w, col, inverse) for col in np.eye(cones.n)
                ]),
            )
        assert_rel(cones.flat(_jprods(cones.blocks(x), vb)), ref.jprod_all(x, v))
        assert_rel(cones.flat(sc.lam_div(vb)), ref.jdiv_all(rlam, v))
        for scale in (0.1, 1.0, 10.0):
            du, dz = scale * rng.normal(size=cones.n), scale * rng.normal(size=cones.n)
            assert_rel(
                cones.max_step(*(cones.blocks(u) for u in (x, du, z, dz))),
                min(ref.max_step(x, du), ref.max_step(z, dz)),
            )
            for g in cones.soc_groups:
                steps = _soc_step(x[g], du[g])
                assert_rel(steps, [ref_soc_step(x[row], du[row]) for row in g])
        # cone membership, inside and outside
        assert_rel(membership_violation(cones, x), ref.membership_violation(x))
        assert_rel(membership_violation(cones, v), ref.membership_violation(v))
        assert membership_violation(cones, v) > 0.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_scaling_holds_near_the_boundary(self, seed, gap):
        # s and z each within gap (relative) of the cone's boundary, so their
        # determinants are about 2 gap u0^2.  The identities are measured
        # against the size of the terms they sum, per block: where s and z
        # are nearly complementary, W^2 has a condition number near 1/gap^2,
        # and a perturbation of s or z by one rounding already moves W^2 z - s
        # by about that times the machine epsilon relative to s.
        rng = np.random.default_rng(seed)
        layout = tuple(SecondOrder(int(k)) for k in rng.integers(2, 6, size=40))
        cones = _Cones(layout)
        s, z = near_boundary_point(rng, layout, gap), near_boundary_point(rng, layout, gap)
        sc = _Scaling(cones, s, z)
        W2 = w2_matrix(cones, sc.w2_values()).toarray()
        W, Wi = scaling_matrix(cones, sc), scaling_matrix(cones, sc, inverse=True)
        assert np.isfinite(W2).all() and np.isfinite(W).all() and np.isfinite(Wi).all()

        def norm(u):  # the infinity norm of a vector or a matrix
            return np.max(np.abs(u) if u.ndim == 1 else np.abs(u).sum(axis=1))

        off = 0
        for cb in layout:
            b = slice(off, off + cb.size)
            off += cb.size
            s_b, z_b, W2_b, W_b, Wi_b = s[b], z[b], W2[b, b], W[b, b], Wi[b, b]
            assert norm(W2_b @ z_b - s_b) <= 1e-12 * (norm(W2_b) * norm(z_b) + norm(s_b))
            assert norm(W_b @ z_b - Wi_b @ s_b) <= 1e-12 * (
                norm(W_b) * norm(z_b) + norm(Wi_b) * norm(s_b)
            )

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
        pat = _Pattern(prog)
        rng = np.random.default_rng(3)
        s, z = interior_point(rng, prog.cones), interior_point(rng, prog.cones)
        w2 = _Scaling(pat.cones, s, z).w2_values()
        kkt = _Stack([(prog, pat)]).kkt(w2, np.array([delta]))
        assert kkt.format == "csc" and kkt.has_canonical_format
        # K is stored under the pattern's ordering: K = K0[perm][:, perm]
        back = np.argsort(pat.perm)
        expect = reference_kkt(prog, w2_matrix(pat.cones, w2), delta)
        assert np.array_equal(kkt.toarray()[np.ix_(back, back)], expect.toarray())

    def test_refinement_targets_unregularized_system(self):
        prog = kkt_programs()["leading Free"]
        pat = _Pattern(prog)
        rng = np.random.default_rng(5)
        s, z = interior_point(rng, prog.cones), interior_point(rng, prog.cones)
        w2 = _Scaling(pat.cones, s, z).w2_values()
        stack = _Stack([(prog, pat)])
        assert stack.factor(w2, np.array([1e-6]))
        n, m = prog.n_vars, prog.n_eq
        rhs = rng.normal(size=n + m + len(prog.h))
        dx, dy, dz = stack.solve(rhs[:n], rhs[n : n + m], rhs[n + m :])
        # one refinement step removes the delta error to first order
        exact = reference_kkt(prog, w2_matrix(pat.cones, w2), 0.0)
        res = exact @ np.concatenate([dx, dy, dz]) - rhs
        assert np.max(np.abs(res)) <= 1e-9 * np.max(np.abs(rhs))

    def test_ordering_computed_once_per_solve(self, monkeypatch):
        prog = seeded_programs(1, seed=3)[0]
        pat = _Pattern(prog)
        size = prog.n_vars + prog.n_eq + len(prog.h)
        assert np.array_equal(np.sort(pat.perm), np.arange(size))
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
        # residual stays large, and solve_socp's rescue runs with partial pivoting
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
            (static,) = _ipm_loop(_members([prog]), 1e-8)
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


def same_pattern_variants(base, k, seed):
    """k programs on base's sparsity pattern, each with its own A and G
    entries, b, c and h, and its own copies of the index arrays; b and h are
    set so that base's solution is feasible with s in the cone's interior."""
    x = solve_socp(base, tol=1e-8).x
    e = _Cones(base.cones).identity()
    rng = np.random.default_rng(seed)

    def rescaled(M):
        data = M.data * rng.uniform(0.5, 2.0, M.nnz)
        return sp.csr_matrix((data, M.indices.copy(), M.indptr.copy()), shape=M.shape)

    out = []
    for _ in range(k):
        A, G = rescaled(base.A), rescaled(base.G)
        out.append(replace(
            base, A=A, G=G, b=A @ x, h=G @ x + rng.uniform(0.5, 2.0) * e,
            c=base.c + rng.normal(size=base.n_vars),
        ))
    return out


VARIANTS: list = []
VARIANT_SOLO: dict[int, object] = {}


def variant(j):
    """The j-th of four programs on BATCH_POOL[0]'s pattern, with their own data."""
    if not VARIANTS:
        VARIANTS.extend(same_pattern_variants(BATCH_POOL[0], 4, seed=5))
    return VARIANTS[j]


def variant_solo(j):
    if j not in VARIANT_SOLO:
        VARIANT_SOLO[j] = solve_socp(variant(j), tol=1e-8)
    return VARIANT_SOLO[j]


def stack_member_by_member(members):
    """The arrays of ``_Stack(members)`` built one member at a time: the
    loop that the stack's per-pattern broadcasting replaced, kept as its
    reference: C holds every member's A rows, then every member's G rows."""
    progs, pats = [prog for prog, _ in members], [pat for _, pat in members]
    sizes = {kind: [getattr(pt, kind) for pt in pats] for kind in "nmp"}
    ox, oy, oz = (np.cumsum([0] + sizes[kind]) for kind in "nmp")
    n, m = ox[-1], oy[-1]
    k_off = np.cumsum([0] + [pt.n + pt.m + pt.p for pt in pats])
    nnz_off = np.cumsum([0] + [len(pt.kkt_indices) for pt in pats])
    ref = {}
    rows = [(prog.A, o) for prog, o in zip(progs, ox)]
    rows += [(prog.G, o) for prog, o in zip(progs, ox)]
    ref["C"] = (
        np.concatenate([M.data for M, _ in rows]),
        np.concatenate([M.indices + o for M, o in rows]),
        np.cumsum(np.concatenate([[0]] + [np.diff(M.indptr) for M, _ in rows])),
    )
    ref["K"] = (
        np.concatenate([pt.kkt_indices + o for pt, o in zip(pats, k_off)]),
        np.concatenate([pt.kkt_indptr[:-1] + o for pt, o in zip(pats, nnz_off)] + [nnz_off[-1:]]),
    )
    ref["perm"] = np.concatenate([
        np.where(pt.perm < pt.n, pt.perm + a,
                 np.where(pt.perm < pt.n + pt.m, pt.perm - pt.n + n + b,
                          pt.perm - pt.n - pt.m + n + m + c))
        for pt, a, b, c in zip(pats, ox, oy, oz)
    ])
    sizes_soc = sorted({g.shape[1] for pt in pats for g in pt.cones.soc_groups})
    kinds = ["dx", "dy", ("w2", 0)] + [("w2", k) for k in sizes_soc] + ["dz"]
    ref["slots"] = np.concatenate([
        pt.slot_kinds[kind] + o for kind in kinds for pt, o in zip(pats, nnz_off)
        if kind in pt.slot_kinds
    ])
    ref["sign"] = np.concatenate([pt.sign for pt in pats])
    # the constant weights: each member's permuted KKT matrix without delta
    # and W^2, read at its stored entries
    fixed = []
    for prog, pt in members:
        K0 = reference_kkt(prog, sp.csr_matrix((pt.p, pt.p)), 0.0).toarray()
        K0 = K0[np.ix_(pt.perm, pt.perm)]
        cols = np.repeat(np.arange(len(pt.kkt_indptr) - 1), np.diff(pt.kkt_indptr))
        fixed.append(K0[pt.kkt_indices, cols])
    ref["fixed"] = np.concatenate(fixed)
    ref["nonneg"] = np.concatenate([pt.cones.nonneg_idx + o for pt, o in zip(pats, oz)])
    ref["soc"] = [
        np.concatenate([pt.cones.group(k) + o for pt, o in zip(pats, oz)]) for k in sizes_soc
    ]
    return ref


def assert_stack_is(stack, ref):
    """The stack's arrays are the reference's (see ``stack_member_by_member``)."""
    for got, want in zip((stack.C.data, stack.C.indices, stack.C.indptr), ref["C"]):
        assert np.array_equal(got, want)
    assert np.array_equal(stack.K.indices, ref["K"][0])
    assert np.array_equal(stack.K.indptr, ref["K"][1])
    for name in ("perm", "slots", "sign", "fixed"):
        assert np.array_equal(getattr(stack, name), ref[name]), name
    assert np.array_equal(stack.cones.nonneg_idx, ref["nonneg"])
    assert len(stack.cones.soc_groups) == len(ref["soc"])
    for got, want in zip(stack.cones.soc_groups, ref["soc"]):
        assert np.array_equal(got, want)


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
        # the stalled program only reaches optimality in its rescue
        with np.errstate(all="ignore"):
            (static,) = _ipm_loop(_members([BATCH_POOL[14]]), 1e-8)
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

    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 11), max_size=4),
        rnd=st.randoms(use_true_random=False),
    )
    def test_shared_pattern_shares_no_data(self, picks, rnd):
        # members on one pattern, each with its own A and G entries, b, c
        # and h, shuffled among members on other patterns: each is bit for
        # bit its solo solve, so nothing but the pattern passes between them
        variants = [variant(j) for j in range(4)]
        assert len({_pattern_key(prog) for prog in variants + [BATCH_POOL[0]]}) == 1
        members = [("variant", j) for j in range(4)] + [("pool", i) for i in picks]
        rnd.shuffle(members)
        sols = solve_socp_batch(
            [variant(j) if kind == "variant" else BATCH_POOL[j] for kind, j in members], tol=1e-8
        )
        for (kind, j), sol in zip(members, sols):
            assert_same_solution(sol, variant_solo(j) if kind == "variant" else solo(j))
        xs = {variant_solo(j).x.tobytes() for j in range(4)}
        assert len(xs) == 4 and all(variant_solo(j).status == OPTIMAL for j in range(4))

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 14), min_size=1, max_size=6),
        n_variants=st.integers(0, 4),
        rnd=st.randoms(use_true_random=False),
    )
    def test_stack_matches_member_by_member_build(self, picks, n_variants, rnd):
        progs = [BATCH_POOL[i] for i in picks] + [variant(j) for j in range(n_variants)]
        rnd.shuffle(progs)
        members = _members(progs)
        stack = _Stack(members)
        assert_stack_is(stack, stack_member_by_member(members))
        # the view C' = C.T sums each product in the order of a CSR copy of
        # each member's own C', so the dual residuals are those of the
        # member alone, bit for bit
        rng = np.random.default_rng(rnd.randrange(2**16))
        yz = rng.normal(size=stack.m + stack.p) * 10.0 ** rng.integers(-8, 9, stack.m + stack.p)
        alone = [
            sp.vstack([prog.A, prog.G], format="csr").T.tocsr()
            @ np.concatenate([yz[stack.span("y", k)], yz[stack.m:][stack.span("z", k)]])
            for k, (prog, _) in enumerate(members)
        ]
        assert np.array_equal(stack.CT @ yz, np.concatenate(alone))
        # the stored view reads C's arrays, without a copy
        assert np.shares_memory(stack.CT.data, stack.C.data)
        # members leave: the survivors' stack is built as any other, and
        # what an exit carries over from the old stack lines up with it
        kept = np.array([rnd.random() < 0.5 for _ in members])
        kept[rnd.randrange(len(members))] = True
        survivors = _Stack([mb for mb, k in zip(members, kept) if k])
        assert_stack_is(survivors, stack_member_by_member(survivors.members))
        carried = [("q", "x"), ("c", "x"), ("b", "y"), ("h", "z"), ("c0", "k"), ("nu", "k"),
                   ("bnorm", "k"), ("cnorm", "k")]
        for name, kind in carried:
            (got,) = stack.gather(kept, (getattr(stack, name), kind))
            assert np.array_equal(got, getattr(survivors, name)), name
        (e,) = stack.gather(kept, (stack.cones.identity(), "z"))
        assert np.array_equal(e, survivors.cones.identity())

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 14), min_size=1, max_size=6),
        n_variants=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_member_sums_match_per_member_reference(self, picks, n_variants, seed):
        # the round's objectives and gaps s'z (the affine gap is the same
        # sum at the stepped point) as segment sums over the stack, against
        # each program's own objective and dot product
        progs = [BATCH_POOL[i] for i in picks] + [variant(j) for j in range(n_variants)]
        stack = _Stack(_members(progs))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=stack.n) * 10.0 ** rng.integers(-3, 4, size=stack.n)
        s, z = rng.uniform(0.0, 2.0, size=(2, stack.p))
        obj, gap = stack.objective(x), stack.sums(s * z, "z")
        assert obj.shape == gap.shape == (len(progs),)
        for k, prog in enumerate(progs):
            xk, _, sk, zk = stack.part(k, x, np.zeros(stack.m), s, z)
            # the scale of the terms summed bounds the rounding of any order
            size = np.abs(prog.c) @ np.abs(xk) + abs(prog.c0) + 0.5 * prog.q @ (xk * xk)
            assert abs(obj[k] - prog.objective(xk)) <= 1e-14 * size
            assert abs(gap[k] - sk @ zk) <= 1e-14 * (np.abs(sk) @ np.abs(zk))

    def test_objective_read_only_where_members_end(self, monkeypatch):
        # the rounds' checks read the stack's objectives; a program's own
        # objective is computed once, for the solution of the round it ends in
        calls = []
        objective = ConicProgram.objective

        def spy(prog, x):
            calls.append(id(prog))
            return objective(prog, x)

        monkeypatch.setattr(ConicProgram, "objective", spy)
        members = _members(BATCH_POOL)
        with np.errstate(all="ignore"):
            ends = _ipm_loop(members, 1e-8)
        # optimal, infeasible, unbounded and stalled endings, over many
        # more member-rounds than endings
        assert {sol.status for sol in ends} == {OPTIMAL, INFEASIBLE, UNBOUNDED, ITER_LIMIT}
        assert sum(sol.iterations for sol in ends) > 5 * len(members)
        assert sorted(calls) == sorted(id(prog) for prog, _ in members)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_pattern_work_done_once_per_pattern(self, monkeypatch, k):
        # k members on one pattern and one on another, leaving the stack in
        # different rounds: one cone layout and one KKT ordering per
        # pattern, and none built again when members leave
        import lemclear.socp as socp

        progs = same_pattern_variants(BATCH_POOL[0], k, seed=k)
        progs.insert(k // 2, BATCH_POOL[1])
        built = {"layouts": 0, "orderings": 0, "stacks": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(socp._Cones, "__init__", counting("layouts", socp._Cones.__init__))
        monkeypatch.setattr(socp, "_kkt_pattern", counting("orderings", socp._kkt_pattern))
        monkeypatch.setattr(socp._Stack, "__init__", counting("stacks", socp._Stack.__init__))
        sols = solve_socp_batch(progs, tol=1e-8)
        assert [s.status for s in sols] == [OPTIMAL] * (k + 1)
        assert built["layouts"] == built["orderings"] == 2
        # the first stack, then one more for each round that some members left
        rounds_left = len({s.iterations for s in sols})
        assert built["stacks"] == rounds_left > 1

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

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_every_ending_matches_its_run_alone(self, monkeypatch, order):
        # one member converges, one has a KKT block that factors at neither
        # delta (SuperLU is made to fail on its x diagonal of 0.375 + delta)
        # and one has its step collapse (the stalled program's static run):
        # each ends as it does alone, at the round it ends in
        import lemclear.socp as socp

        splu = spla.splu
        marked = (0.375 + 1e-9, 0.375 + 1e-6)

        def fake(A, **kwargs):
            if np.isin(A.diagonal(), marked).any():
                raise RuntimeError("Factor is exactly singular")
            return splu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", fake)
        steps = []
        step = socp._newton_step

        def spy(st, *args):
            steps.append(step(st, *args))
            return steps[-1]

        monkeypatch.setattr(socp, "_newton_step", spy)
        singular = ConicProgram(
            c=np.array([1.0]), A=sp.csr_matrix((0, 1)), b=np.zeros(0),
            G=sp.csr_matrix([[-1.0]]), h=np.array([-1.0]), cones=(NonNeg(1),),
            q=np.array([0.375]),
        )
        progs = [BATCH_POOL[0], singular, BATCH_POOL[14]]
        with np.errstate(all="ignore"):
            alone = [_ipm_loop(_members([prog]), 1e-8)[0] for prog in progs]
            steps.clear()
            together = _ipm_loop(_members([progs[i] for i in order]), 1e-8)
        assert [sol.status for sol in alone] == [OPTIMAL, ITER_LIMIT, ITER_LIMIT]
        assert alone[1].iterations == 1 and 1 < alone[2].iterations < _MAX_ITER
        # the failed factor and the collapsed step both happened in the batch
        assert ([order.index(1)], False) in steps
        assert any(moved and failed for failed, moved in steps)
        for i, sol in zip(order, together):
            assert_same_solution(sol, alone[i])


class TestCertifiedVerdicts:
    @pytest.mark.parametrize(
        "make, status", [(infeasible_program, INFEASIBLE), (unbounded_program, UNBOUNDED)]
    )
    def test_certified_verdict_makes_one_ipm_run(self, monkeypatch, make, status):
        runs = spy_runs(monkeypatch)
        sol = solve_socp(make(), tol=1e-8)
        # the rescue runs on ITER_LIMIT alone, so one run means the
        # certificate held
        assert sol.status == status
        assert runs == [(1, False, False)]

    def test_uncertified_ending_is_rerun_alone(self, monkeypatch):
        runs = spy_runs(monkeypatch)
        progs = [static_pivot_stall_program(), infeasible_program(), norm_cone_program()]
        sols = solve_socp_batch(progs, tol=1e-8)
        assert [s.status for s in sols] == [OPTIMAL, INFEASIBLE, OPTIMAL]
        assert runs == [(3, False, False), (1, True, False)]


# ---------------------------------------------------------------------------
# Warm starts: a member given a start begins at its (x, y, z), with s
# fitted to its own rows and (s, z) shifted into the cone, and is still bit
# for bit the same alone or in any batch.
# ---------------------------------------------------------------------------


def scaled_start(i, factor):
    """Program i's own cold solution scaled by factor (None: no start)."""
    if factor is None:
        return None
    sol = solo(i)
    return tuple(factor * v for v in (sol.x, sol.y, sol.z))


WARM_SOLO: dict[tuple, object] = {}


def warm_solo(i, factor):
    if (i, factor) not in WARM_SOLO:
        (WARM_SOLO[i, factor],) = solve_socp_batch(
            [BATCH_POOL[i]], tol=1e-8, starts=[scaled_start(i, factor)]
        )
    return WARM_SOLO[i, factor]


RESCUED: dict[int, object] = {}


def rescued(i):
    """Program i's rescue run on its own: cold, under partial pivoting."""
    if i not in RESCUED:
        with np.errstate(all="ignore"):
            (RESCUED[i],) = _ipm_loop(_members([BATCH_POOL[i]]), 1e-8, pivoting=True)
    return RESCUED[i]


def first_iterates(monkeypatch):
    """From here on, the (program, (x, y, s, z)) of each member of the first
    Newton step of a cone solve, copied as the step receives them."""
    import lemclear.socp as socp

    first = []
    step = socp._newton_step

    def spy(st, x, y, s, z, *args):
        if not first:
            first.extend(
                (prog, [v.copy() for v in st.part(k, x, y, s, z)])
                for k, (prog, _) in enumerate(st.members)
            )
        return step(st, x, y, s, z, *args)

    monkeypatch.setattr(socp, "_newton_step", spy)
    return first


class TestWarmStart:
    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 14), st.sampled_from([None, 0.5, 1.0, 2.0])),
            min_size=1, max_size=6,
        ),
        rnd=st.randoms(use_true_random=False),
    )
    def test_member_with_start_matches_its_solo_solve(self, picks, rnd):
        members = picks + [(14, None)]
        rnd.shuffle(members)
        sols = solve_socp_batch(
            [BATCH_POOL[i] for i, _ in members], tol=1e-8,
            starts=[scaled_start(i, f) for i, f in members],
        )
        for (i, factor), sol in zip(members, sols):
            assert_same_solution(sol, warm_solo(i, factor))

    def test_warm_member_begins_at_its_start_shifted_into_the_cone(self, monkeypatch):
        # the warm member's first iterate is its start's x and y as given,
        # its s fitted to its rows, h - Gx projected onto the cone, and s and
        # z plus _WARM_SHIFT times the cone identity, whose SOC entries past
        # the first are 0; the cold member beside it begins at x = 0
        i = next(k for k in range(12) if any(cb.kind == "soc" for cb in BATCH_POOL[k].cones))
        prog = BATCH_POOL[i]
        cones = _Cones(prog.cones)
        e = cones.identity()
        assert 0.0 < e.sum() < len(e)
        # x of the wrong sign, so that h - Gx leaves the cone
        x, y, z = start = (-solo(i).x, *scaled_start(i, 0.5)[1:])
        fitted = cones.project(prog.h - prog.G @ x)
        assert not np.array_equal(fitted, prog.h - prog.G @ x)
        first = first_iterates(monkeypatch)
        solve_socp_batch([BATCH_POOL[1], prog], tol=1e-8, starts=[None, start])
        (_, cold), (_, warm) = first
        assert not cold[0].any()
        for got, want in zip(warm, (x, y, fitted + _WARM_SHIFT * e, z + _WARM_SHIFT * e)):
            assert np.array_equal(got, want)

    def test_start_from_the_solution_saves_iterations(self):
        for i in range(12):
            assert warm_solo(i, 1.0).status == OPTIMAL
            assert warm_solo(i, 1.0).iterations < solo(i).iterations

    def test_failed_warm_start_is_rerun_cold(self, monkeypatch):
        # z far outside the cone: the warm run ends at once without a
        # certificate, and the rescue gives exactly the answer of a cold run
        # under partial pivoting, which agrees with the cold solve's
        cold, rescue = solo(0), rescued(0)
        x, y, z = scaled_start(0, 1.0)
        solo(1)
        runs = spy_runs(monkeypatch)
        warm, other = solve_socp_batch(
            [BATCH_POOL[0], BATCH_POOL[1]], tol=1e-8, starts=[(x, y, -10.0 * z - 1.0), None]
        )
        assert runs == [(2, False, True), (1, True, False)]
        assert warm.status == rescue.status == cold.status == OPTIMAL
        for attr in ("x", "y", "s", "z"):
            assert np.array_equal(getattr(warm, attr), getattr(rescue, attr))
        assert warm.iterations > rescue.iterations
        assert abs(warm.obj - cold.obj) <= 1e-8 * (1.0 + abs(cold.obj))
        assert_same_solution(other, solo(1))

    def test_warm_stall_takes_the_one_rescue(self, monkeypatch):
        # the stalled program fails warm, and is settled by the rescue as it
        # is without a start
        stall, cold = BATCH_POOL[14], solo(14)
        start = (np.full(stall.n_vars, 1e12), *scaled_start(14, 1.0)[1:])
        runs = spy_runs(monkeypatch)
        (warm,) = solve_socp_batch([stall], tol=1e-8, starts=[start])
        assert runs == [(1, False, True), (1, True, False)]
        assert warm.status == cold.status == OPTIMAL
        for attr in ("x", "y", "s", "z"):
            assert np.array_equal(getattr(warm, attr), getattr(cold, attr))

    def test_diverged_run_without_a_certificate_is_iter_limit(self):
        # from that start x sits near 1e12: the first round's divergence
        # test ends the run, and as neither certificate holds there its
        # status is ITER_LIMIT, the status the rescue runs on
        stall = BATCH_POOL[14]
        start = (np.full(stall.n_vars, 1e12), *scaled_start(14, 1.0)[1:])
        with np.errstate(all="ignore"):
            (sol,) = _ipm_loop(_members([stall]), 1e-8, starts=[start])
        assert sol.status == ITER_LIMIT and sol.iterations == 1

    def test_warm_run_is_capped(self, monkeypatch):
        # from 1.5 times its own solution the stalled program neither
        # converges nor stalls under static pivots; the warm run stops at its
        # cap and the rescue settles it as it does without a start
        cold, rescue = solo(14), rescued(14)
        runs = spy_runs(monkeypatch)
        (warm,) = solve_socp_batch([BATCH_POOL[14]], tol=1e-8, starts=[scaled_start(14, 1.5)])
        assert runs == [(1, False, True), (1, True, False)]
        assert warm.status == cold.status == OPTIMAL
        for attr in ("x", "y", "s", "z"):
            assert np.array_equal(getattr(warm, attr), getattr(cold, attr))
        assert warm.iterations == _WARM_MAX_ITER + rescue.iterations

    def test_certified_warm_verdict_is_kept(self, monkeypatch):
        start = scaled_start(12, 1.0)
        runs = spy_runs(monkeypatch)
        (sol,) = solve_socp_batch([BATCH_POOL[12]], tol=1e-8, starts=[start])
        assert sol.status == INFEASIBLE
        assert runs == [(1, False, True)]

    def test_start_sizes_checked(self):
        prog = BATCH_POOL[0]
        x, y, z = scaled_start(0, 1.0)
        with pytest.raises(ValueError, match="start of sizes"):
            solve_socp_batch([prog], starts=[(x[:-1], y, z)])
        with pytest.raises(ValueError, match="start of sizes"):
            solve_socp_batch([prog], starts=[(x, y, z, z)])
        with pytest.raises(ValueError, match="1 starts for 2 programs"):
            solve_socp_batch([prog, prog], starts=[None])


class TestFittedSlack:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projection_onto_the_cone(self, seed):
        # Moreau: u splits into its projection p, in the cone, and p - u,
        # also in the (self-dual) cone and orthogonal to p; a point inside
        # the cone is its own projection
        rng = np.random.default_rng(seed)
        cones = _Cones((NonNeg(3), SecondOrder(3), NonNeg(1), SecondOrder(4), SecondOrder(3)))
        u = rng.normal(size=cones.n) * rng.uniform(0.1, 10.0)
        p = cones.project(u)
        assert membership_violation(cones, p) <= 1e-15 * np.abs(u).max()
        assert membership_violation(cones, p - u) <= 1e-15 * np.abs(u).max()
        assert abs(p @ (p - u)) <= 1e-12 * (1.0 + u @ u)
        inside = p + cones.identity()
        assert np.array_equal(cones.project(inside), inside)

    def test_solution_slack_is_refitted_to_itself(self, monkeypatch):
        # started from its own solution, each program's first s is h - Gx
        # projected onto the cone, plus the shift: the solution's s up to
        # its residual
        first = first_iterates(monkeypatch)
        starts = [scaled_start(i, 1.0) for i in range(12)]
        solve_socp_batch(BATCH_POOL[:12], tol=1e-8, starts=starts)
        assert len(first) == 12
        for i, (prog, (x, _, s, _)) in enumerate(first):
            assert prog is BATCH_POOL[i]
            cones = _Cones(prog.cones)
            e = cones.identity()
            assert np.array_equal(s, cones.project(prog.h - prog.G @ x) + _WARM_SHIFT * e)
            gap = np.abs(s - _WARM_SHIFT * e - solo(i).s).max()
            assert gap <= 2.0 * solo(i).residuals["primal"] + 1e-15


def recomputed_residuals(prog, sol):
    """The residual norms at sol's (x, y, s, z), from the program's own
    matrices: the dual residual through C' for C = [A; G], as scipy
    transposes it."""
    x, y, s, z = sol.x, sol.y, sol.s, sol.z
    C = sp.vstack([prog.A, prog.G], format="csr")
    return {
        "primal": max(np.abs(prog.A @ x - prog.b).max(initial=0.0),
                      np.abs(prog.G @ x + s - prog.h).max(initial=0.0)),
        "dual": np.abs(prog.q * x + prog.c - C.T @ np.concatenate([y, -z])).max(initial=0.0),
        "gap": abs(float(s @ z)),
    }


def assert_reports_its_point(prog, sol):
    want = recomputed_residuals(prog, sol)
    assert sol.residuals.keys() == want.keys()
    for key, value in want.items():
        assert_rel(sol.residuals[key], value)


class TestReportedResiduals:
    # every ending reports the residuals at the point it returns, to
    # relative 1e-12 of the program's own: BATCH_POOL's optimal, infeasible
    # and unbounded programs, the stall program's static run (it stalls) and
    # its rescue, and a warm run stopped at its cap with the point of its
    # last round
    def test_pool_endings(self):
        statuses = [OPTIMAL] * 12 + [INFEASIBLE, UNBOUNDED, OPTIMAL]
        for i, status in enumerate(statuses):
            assert solo(i).status == status
            assert_reports_its_point(BATCH_POOL[i], solo(i))

    def test_stalled_run(self):
        with np.errstate(all="ignore"):
            (sol,) = _ipm_loop(_members([BATCH_POOL[14]]), 1e-8)
        assert sol.status == ITER_LIMIT
        assert_reports_its_point(BATCH_POOL[14], sol)

    def test_capped_run_reports_its_last_round(self):
        start = scaled_start(14, 1.5)
        with np.errstate(all="ignore"):
            (sol,) = _ipm_loop(_members([BATCH_POOL[14]]), 1e-8, starts=[start])
        assert sol.status == ITER_LIMIT and sol.iterations == _WARM_MAX_ITER
        assert_reports_its_point(BATCH_POOL[14], sol)


# ---------------------------------------------------------------------------
# One interior-point round against a flat round: the same Newton step on
# vectors over all slack rows, with the NT scaling restated from its closed
# form and every product with W gathering its blocks from, and scattering
# them back to, the full vectors, separate step searches for s and z, and
# the KKT data summed from all of its weights in every round.  The round
# computes each entry by the same operations, so the two must agree exactly.
# ---------------------------------------------------------------------------


def flat_scaling(cones, s, z):
    """The NonNeg weights, per SOC group (beta, w, v, det lambda), and lambda."""
    nn = cones.nonneg_idx
    w_nn = np.sqrt(s[nn] / z[nn])
    lam = np.zeros(cones.n)
    lam[nn] = np.sqrt(s[nn] * z[nn])
    soc_w = []
    for g in cones.soc_groups:
        sb, zb = s[g], z[g]
        rs, rz = np.sqrt(_jdet(sb)), np.sqrt(_jdet(zb))
        # s and z normalized to determinant 1
        sn, zn = sb / rs[:, None], zb / rz[:, None]
        w = (sn + _reflect(zn)) / np.sqrt(2.0 * (1.0 + _rowdot(sn, zn)))[:, None]
        e = np.zeros_like(w)
        e[:, 0] = 1.0
        v = (w + e) / np.sqrt(2.0 * (w[:, 0] + 1.0))[:, None]
        beta = np.sqrt(rs / rz)
        soc_w.append((beta, w, v, rs * rz))
        lam[g] = _nt_product(beta, v, zb)
    return w_nn, soc_w, lam


def flat_w2_values(w_nn, soc_w):
    """s/z on NonNeg, beta^2 (2 w w' - J) on SOC."""
    out = [w_nn * w_nn]
    for beta, w, _, _ in soc_w:
        k = w.shape[1]
        J = np.diag(np.r_[1.0, -np.ones(k - 1)])
        m = 2.0 * (w[:, :, None] * w[:, None, :]) - J
        out.append(((beta * beta)[:, None, None] * m).ravel())
    return np.concatenate(out)


def flat_apply_w(cones, w_nn, soc_w, u, inverse):
    out = np.empty_like(u)
    nn = cones.nonneg_idx
    out[nn] = u[nn] / w_nn if inverse else u[nn] * w_nn
    for g, (beta, _, v, _) in zip(cones.soc_groups, soc_w):
        # W u = beta (2 v v'u - J u), W^-1 u = (2 J v (J v)'u - J u) / beta
        if inverse:
            out[g] = _nt_product(1.0 / beta, _reflect(v), u[g])
        else:
            out[g] = _nt_product(beta, v, u[g])
    return out


def flat_jprod_all(cones, u, v):
    out = np.zeros(cones.n)
    nn = cones.nonneg_idx
    out[nn] = u[nn] * v[nn]
    for g in cones.soc_groups:
        out[g] = _jprod(u[g], v[g])
    return out


def flat_jdiv_all(cones, soc_w, lam, d):
    out = np.zeros(cones.n)
    nn = cones.nonneg_idx
    out[nn] = d[nn] / lam[nn]
    for g, (*_, det_lam) in zip(cones.soc_groups, soc_w):
        out[g] = _jdiv(lam[g], d[g], det_lam)
    return out


def flat_max_step(cones, u, du):
    """Per member, the step of one pair alone, over the first half of each paired segment."""

    def segmin(values, segments, out):
        starts, owners = segments
        if len(owners):
            starts = starts[: len(owners)]  # the first of the two halves
            out[owners] = np.fmin(out[owners], np.minimum.reduceat(values, starts))

    alpha = np.full(cones.members, math.inf)
    nn = cones.nonneg_idx
    if len(nn):
        un, dn = u[nn], du[nn]
        neg = dn < 0
        ratio = np.full(len(nn), math.inf)
        ratio[neg] = -un[neg] / dn[neg]
        segmin(ratio, cones.nonneg_seg, alpha)
    for g, seg in zip(cones.soc_groups, cones.soc_seg):
        segmin(_soc_step(u[g], du[g]), seg, alpha)
    return alpha


def flat_factor(st, w2, deltas):
    """Refill st.K from every weight in one sum, slots kind by kind, and factor it."""
    pats = [pat for _, pat in st.members]
    offs = np.cumsum([0] + [len(pat.kkt_indices) for pat in pats])
    soc_sizes = [g.shape[1] for g in st.cones.soc_groups]
    kinds = ["q", "dx", "C", "dy", ("w2", 0)] + [("w2", k) for k in soc_sizes] + ["dz"]
    slots = np.concatenate([
        pat.slot_kinds[kind] + o for kind in kinds for pat, o in zip(pats, offs)
        if kind in pat.slot_kinds
    ])
    c_data = np.concatenate([
        np.tile(np.concatenate([prog.A.data, prog.G.data]), 2) for prog, _ in st.members
    ])
    dx, dy, dz = (st.spread(deltas, kind) for kind in "xyz")
    weights = np.concatenate([st.q, dx, c_data, -dy, -w2, -dz])
    st.K.data[:] = np.bincount(slots, weights=weights, minlength=len(st.K.data))
    st.lu = None
    try:
        st.lu = spla.splu(st.K, permc_spec="NATURAL", **_DIAGONAL_PIVOTS)
    except (RuntimeError, ValueError):
        return False
    st.delta = np.repeat(deltas, st.sizes)
    return True


def flat_scale_and_factor(st, s, z):
    w_nn, soc_w, lam = flat_scaling(st.cones, s, z)
    w2 = flat_w2_values(w_nn, soc_w)
    deltas = [1e-9] * len(st.members)
    if not flat_factor(st, w2, np.array(deltas)):
        deltas = []
        for k, member in enumerate(st.members):
            sl = st.span("z", k)
            alone = _Stack([member])
            a_nn, a_soc, _ = flat_scaling(member[1].cones, s[sl], z[sl])
            a_w2 = flat_w2_values(a_nn, a_soc)
            deltas.append(next(
                (d for d in (1e-9, 1e-6) if flat_factor(alone, a_w2, np.array([d]))), None
            ))
        if None not in deltas:
            assert flat_factor(st, w2, np.array(deltas))
    return w_nn, soc_w, lam, deltas


def flat_newton_step(st, x, y, s, z, r, mu, e):
    r_d, r_p, r_g = r
    w_nn, soc_w, lam, deltas = flat_scale_and_factor(st, s, z)
    failed = [k for k, d in enumerate(deltas) if d is None]
    if failed:
        return failed, False
    cones = st.cones
    lam_lam = flat_jprod_all(cones, lam, lam)
    mu, nu = mu.tolist(), st.nu.tolist()

    def direction(d_target):
        g = flat_jdiv_all(cones, soc_w, lam, d_target)
        wg = flat_apply_w(cones, w_nn, soc_w, g, False)
        dx, dyt, dz = st.solve(-r_d, -r_p, -r_g - wg)
        wdz = flat_apply_w(cones, w_nn, soc_w, dz, False)
        ds = flat_apply_w(cones, w_nn, soc_w, g - wdz, False)
        return dx, -dyt, ds, dz

    dx_a, dy_a, ds_a, dz_a = direction(-lam_lam)
    steps = zip(flat_max_step(cones, s, ds_a).tolist(), flat_max_step(cones, z, dz_a).tolist())
    a_aff = st.spread([min(1.0, a_s, a_z) for a_s, a_z in steps], "z")
    aff_gap = st.sums((s + a_aff * ds_a) * (z + a_aff * dz_a), "z").tolist()
    sigma = [
        min(1.0, max(0.0, (g / nu_k / mu_k) ** 3)) if mu_k > 0 else 0.0
        for g, nu_k, mu_k in zip(aff_gap, nu, mu)
    ]
    wds = flat_apply_w(cones, w_nn, soc_w, ds_a, True)
    wdz = flat_apply_w(cones, w_nn, soc_w, dz_a, False)
    sigma_mu = st.spread([sg * mu_k for sg, mu_k in zip(sigma, mu)], "z")
    dx, dy, ds, dz = direction(sigma_mu * e - lam_lam - flat_jprod_all(cones, wds, wdz))
    st.lu = None
    steps = zip(flat_max_step(cones, s, ds).tolist(), flat_max_step(cones, z, dz).tolist())
    alpha = [min(1.0, 0.99 * a_s, 0.99 * a_z) for a_s, a_z in steps]
    stalled = [k for k, a in enumerate(alpha) if not math.isfinite(a) or a <= 1e-14]
    moving = np.ones(len(alpha), dtype=bool)
    moving[stalled] = False
    for v, dv, kind in ((x, dx, "x"), (y, dy, "y"), (s, ds, "z"), (z, dz, "z")):
        step = st.spread(alpha, kind) * dv
        if stalled:
            rows = st.spread(moving, kind)
            v[rows] += step[rows]
        else:
            v += step
    return stalled, True


def layout_program(rng, cones, m):
    """A program with the given cones, m equality rows and random data."""
    p = sum(cb.size for cb in cones)
    n = int(rng.integers(3, 7))
    G = sp.random(p, n, density=0.6, random_state=rng, format="csr") + sp.eye(p, n, format="csr")
    A = sp.random(m, n, density=0.6, random_state=rng, format="csr") + sp.eye(m, n, format="csr")
    return ConicProgram(
        c=rng.normal(size=n), A=A, b=rng.normal(size=m), G=G, h=rng.normal(size=p),
        cones=cones, q=rng.uniform(0.0, 1.0, size=n),
    )


def with_new_data(rng, prog):
    """prog's sparsity pattern with new data."""
    def rescaled(M):
        return sp.csr_matrix(
            (M.data * rng.uniform(0.5, 2.0, M.nnz), M.indices.copy(), M.indptr.copy()),
            shape=M.shape,
        )

    return replace(
        prog, A=rescaled(prog.A), G=rescaled(prog.G), c=rng.normal(size=prog.n_vars),
        b=rng.normal(size=prog.n_eq), h=rng.normal(size=len(prog.h)),
        q=rng.uniform(0.0, 1.0, size=prog.n_vars),
    )


def nonneg_layout(rng):
    """NonNeg blocks only, as a prosumer program's cone."""
    return tuple(NonNeg(int(rng.integers(1, 6))) for _ in range(int(rng.integers(1, 4))))


def round_stack(seed, layout=random_layout):
    """Four members on two patterns of the given layout: three without
    equality rows and, second, one with them.  Returns the stack and a state
    in the cone's interior with its residuals; member 2's cone residual is
    scaled by 1e30, so its step collapses."""
    rng = np.random.default_rng(seed)
    first = layout_program(rng, layout(rng), 0)
    progs = [first, layout_program(rng, layout(rng), 2)]
    progs += [with_new_data(rng, first) for _ in range(2)]
    members = _members(progs)
    st = _Stack(members)
    assert len({id(pat) for _, pat in members}) == 2
    x, y = rng.normal(size=st.n), rng.normal(size=st.m)
    s = np.concatenate([interior_point(rng, prog.cones) for prog in progs])
    z = np.concatenate([interior_point(rng, prog.cones) for prog in progs])
    r_d, r_p, r_g, _ = st.residuals(x, y, s, z)
    r_g[st.span("z", 2)] *= 1e30
    mu = st.sums(s * z, "z") / st.nu
    return st, (x, y, s, z), (r_d, r_p, r_g), mu, st.cones.identity()


def assert_round_is_bit_identical(monkeypatch, seed, singular_at, expect, layout):
    # SuperLU fails on a matrix whose diagonal holds -delta for the
    # listed deltas: only member 1 has equality rows, so only its block
    # has that diagonal, and it settles at 1e-6 or at neither
    splu = spla.splu
    factored = []

    def fake(A, **kwargs):
        if np.isin(A.diagonal(), singular_at).any():
            raise RuntimeError("Factor is exactly singular")
        factored.append(A.shape[0])
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", fake)
    st, state, r, mu, e = round_stack(seed, layout)
    ours, theirs = [v.copy() for v in state], [v.copy() for v in state]
    with np.errstate(all="ignore"):
        got = _newton_step(st, *ours, r, mu, e)
        want = flat_newton_step(st, *theirs, r, mu, e)
    assert got == want == expect
    assert factored and all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    failed, moved = expect
    if moved:
        member_1 = np.split(st.delta, np.cumsum(st.sizes)[:-1])[1]
        assert set(member_1) == {1e-6 if singular_at else 1e-9}
    # every vector moves when the others step; a failed member stays put
    changed = [not np.array_equal(a, b) for a, b in zip(ours, state)]
    assert changed == [moved] * 4
    for k in failed:
        for a, b, kind in zip(ours, state, "xyzz"):
            assert np.array_equal(a[st.span(kind, k)], b[st.span(kind, k)])


ROUND_CASES = pytest.mark.parametrize(
    "singular_at, expect",
    [((), ([2], True)), ((-1e-9,), ([2], True)), ((-1e-9, -1e-6), ([1], False))],
    ids=["delta 1e-9", "member 1 at 1e-6", "member 1 singular"],
)


class TestRoundAgainstFlatRound:
    @pytest.mark.parametrize("seed", range(4))
    @ROUND_CASES
    def test_round_is_bit_identical(self, monkeypatch, seed, singular_at, expect):
        assert_round_is_bit_identical(monkeypatch, seed, singular_at, expect, random_layout)

    @pytest.mark.parametrize("seed", range(4))
    @ROUND_CASES
    def test_nonneg_round_is_bit_identical(self, monkeypatch, seed, singular_at, expect):
        # NonNeg-only layouts take their blocks as slices of the vectors
        # themselves; the flat round gathers and scatters them by index
        assert_round_is_bit_identical(monkeypatch, seed, singular_at, expect, nonneg_layout)

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_step_search_equals_two_searches(self, seed):
        st, (x, y, s, z), *_ = round_stack(seed)
        cones = st.cones
        rng = np.random.default_rng(100 + seed)
        ds, dz = rng.normal(size=cones.n), rng.normal(size=cones.n)
        # member 0 moves along its own point in both (an infinite step),
        # member 3 only in s; at one NonNeg row of member 1, s is NaN, which
        # the search of s alone ignores, and z falls fast enough to make it
        # member 1's least step
        for k, both in ((0, True), (3, False)):
            sl = st.span("z", k)
            ds[sl] = s[sl]
            if both:
                dz[sl] = z[sl]
        sl = st.span("z", 1)
        row = next(i for i in cones.nonneg_idx if sl.start <= i < sl.stop)
        s[row], ds[row], dz[row] = np.nan, -1.0, -1e3
        with np.errstate(invalid="ignore"):
            fused = cones.max_step(*(cones.blocks(u) for u in (s, ds, z, dz)))
            apart = np.minimum(flat_max_step(cones, s, ds), flat_max_step(cones, z, dz))
        assert np.array_equal(fused, apart)
        assert fused[0] == math.inf and math.isfinite(fused[3])
        assert fused[1] == z[row] / 1e3
