"""Standard-form cone programs and a compact primal-dual interior-point solver.

Problems take the form

    minimize    c'x + 0.5 * sum_i q_i x_i^2 + c0
    subject to  A x = b,   x in K

where K is an ordered product of Free, NonNeg and SecondOrder blocks that
partitions the variable vector.  The solver is a Mehrotra
predictor-corrector method with Nesterov-Todd scaling on the cone blocks;
equality duals are reported with the convention  d(obj)/d(b_i) = y_i,  which
is what lets a nodal-balance dual be read directly as a marginal price.

Each solve builds one workspace (``_Workspace``) that lives for that solve
only.  Its cone layout groups the second-order blocks by size into
(n_blocks, k) index arrays, so the Jordan algebra and the NT scaling run as
one numpy call per size group rather than a Python loop over blocks.

The regularized KKT matrix [[Q + H + delta I, A'], [A, -delta I]] is
symmetric quasi-definite, so it can be factored under any symmetric ordering
without pivoting (Vanderbei, SIAM J. Optim. 1995); ECOS pairs this with
static regularization and iterative refinement (Domahidi, Chu and Boyd,
ECC 2013).  Its pattern does not change between iterations.  The workspace
therefore computes one minimum-degree ordering per solve, stores the matrix
already permuted with a map from each source entry to its slot, and each
iteration only refills the data and factors it with diagonal pivots.
Solves and one refinement step against the unregularized matrix stay in the
permuted coordinates, and H v is applied through the NT scaling rather than
as a matrix.  Diagonal pivots can shrink toward zero on nearly singular
programs (a lossless network, say) and stall the iteration, so a run that
ends non-optimal is repeated with SuperLU's partial pivoting.  Either way an
optimal answer is only returned when residuals computed from the program
itself, not from the factorization, meet the tolerance.

Everything here is deterministic: no randomization, no threading, and the
same inputs always produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Free",
    "NonNeg",
    "SecondOrder",
    "ConeBlock",
    "ConicProgram",
    "ConicSolution",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITER_LIMIT",
    "solve_socp",
    "check_kkt",
    "dual_sensitivity_probe",
    "ProbeResult",
    "dump_program",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iter_limit"


@dataclass(frozen=True)
class ConeBlock:
    kind: str  # "free" | "nonneg" | "soc"
    size: int

    def __post_init__(self):
        if self.kind not in ("free", "nonneg", "soc"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("cone block must have positive size")
        if self.kind == "soc" and self.size < 2:
            raise ValueError("second-order cone needs dimension >= 2")


def Free(k: int) -> ConeBlock:
    return ConeBlock("free", k)


def NonNeg(k: int) -> ConeBlock:
    return ConeBlock("nonneg", k)


def SecondOrder(k: int) -> ConeBlock:
    return ConeBlock("soc", k)


@dataclass
class ConicProgram:
    """Standard-form cone program with an optional diagonal quadratic term."""

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    cones: tuple[ConeBlock, ...]
    q: np.ndarray | None = None
    c0: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not sp.issparse(self.A):
            self.A = sp.csr_matrix(np.atleast_2d(np.asarray(self.A, dtype=float)))
        else:
            self.A = self.A.tocsr()
        if self.q is not None:
            self.q = np.asarray(self.q, dtype=float)
            if np.any(self.q < 0):
                raise ValueError("quadratic diagonal must be elementwise nonnegative")
            if self.q.shape != self.c.shape:
                raise ValueError("quadratic diagonal must match variable count")
        n = sum(cb.size for cb in self.cones)
        if n != self.c.shape[0]:
            raise ValueError(
                f"cone blocks cover {n} coordinates but c has {self.c.shape[0]}"
            )
        if self.A.shape != (self.b.shape[0], n):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({self.b.shape[0]}, {n})"
            )

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_eq(self) -> int:
        return self.b.shape[0]

    def objective(self, x: np.ndarray) -> float:
        val = float(self.c @ x) + self.c0
        if self.q is not None:
            val += 0.5 * float(self.q @ (x * x))
        return val


@dataclass
class ConicSolution:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    obj: float
    residuals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0


# ---------------------------------------------------------------------------
# Jordan-algebra primitives for second-order cones, batched by block size.
#
# For u = (u0, ub) the cone is u0 >= ||ub||; the algebra has identity
# e = (1, 0), product u o v = (u'v, u0*vb + v0*ub) and determinant
# det(u) = u0^2 - ||ub||^2.  The quadratic representation
# P(u) v = 2 u (u'v) - det(u) (v0, -vb) gives the NT scaling point in
# closed form:  w = P(sqrt(x)) (P(sqrt(x)) z)^(-1/2)  satisfies P(w) z = x.
#
# Every helper takes (n_blocks, k) arrays holding one cone block of size k
# per row, and works row by row.
# ---------------------------------------------------------------------------


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _jdet(u: np.ndarray) -> np.ndarray:
    return u[:, 0] * u[:, 0] - _rowdot(u[:, 1:], u[:, 1:])


def _jsqrt(u: np.ndarray) -> np.ndarray:
    root = np.sqrt(np.maximum(_jdet(u), 0.0))
    s = np.sqrt(np.maximum((u[:, 0] + root) / 2.0, 1e-300))
    out = u / (2.0 * s)[:, None]
    out[:, 0] = s
    return out


def _jinv(u: np.ndarray) -> np.ndarray:
    det = _jdet(u)
    out = -u / det[:, None]
    out[:, 0] = u[:, 0] / det
    return out


def _jprod(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = u[:, :1] * v + v[:, :1] * u
    out[:, 0] = _rowdot(u, v)
    return out


def _jdiv(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o u = d for u."""
    out = np.empty_like(d)
    out[:, 0] = (lam[:, 0] * d[:, 0] - _rowdot(lam[:, 1:], d[:, 1:])) / _jdet(lam)
    out[:, 1:] = (d[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]
    return out


def _papply(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quadratic representation P(u) applied to v."""
    det = _jdet(u)[:, None]
    out = 2.0 * _rowdot(u, v)[:, None] * u
    out[:, :1] -= det * v[:, :1]
    out[:, 1:] += det * v[:, 1:]
    return out


def _pmat(u: np.ndarray) -> np.ndarray:
    """P(u) as a stack of dense k x k matrices, 2uu' - det(u) R."""
    k = u.shape[1]
    det = _jdet(u)[:, None, None]
    m = 2.0 * (u[:, :, None] * u[:, None, :])
    m[:, :1, :1] -= det
    m[:, 1:, 1:] += det * np.eye(k - 1)
    return m


def _soc_step(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Largest step a with u + a*du remaining in the cone (inf if unbounded)."""
    a2 = _jdet(du)
    b1 = u[:, 0] * du[:, 0] - _rowdot(u[:, 1:], du[:, 1:])
    c0 = _jdet(u)
    # f(a) = a2*a^2 + 2*b1*a + c0 >= 0, f(0) = c0 > 0
    disc = b1 * b1 - a2 * c0
    rd = np.sqrt(np.maximum(disc, 0.0))
    quad = np.abs(a2) > 1e-300
    lin = ~quad & (b1 < 0.0)
    # unselected branches get harmless denominators instead of zeros
    a2q = np.where(quad, a2, 1.0)
    b1l = np.where(lin, b1, -1.0)
    r1 = np.where(quad, (-b1 - rd) / a2q, np.where(lin, -c0 / (2.0 * b1l), np.inf))
    r2 = np.where(quad, (-b1 + rd) / a2q, np.inf)
    step = np.minimum(np.where(r1 > 0.0, r1, np.inf), np.where(r2 > 0.0, r2, np.inf))
    never = ((a2 >= 0.0) & (b1 >= 0.0)) | (disc < 0.0)
    return np.where(never, np.inf, step)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=int)


def _pattern(major: np.ndarray, minor: np.ndarray, size: int):
    """Compressed (CSC) size x size pattern of the given entries, duplicates merged.

    Returns the ``indices`` and ``indptr`` arrays in the index dtype scipy
    picks, and the slot of each entry in the data vector.
    """
    keys, slot = np.unique(major * size + minor, return_inverse=True)
    indptr = np.searchsorted(keys // size, np.arange(size + 1))
    mat = sp.csc_matrix((np.zeros(len(keys)), keys % size, indptr), shape=(size, size))
    return mat.indices, mat.indptr, slot


# SuperLU options for a quasi-definite matrix: the diagonal is the pivot
# whenever it is nonzero.  Supernodes in these KKT matrices are small, so
# relaxed supernodes and wide panels only add work on padded zeros (about
# half the factor time on the 1708-row network KKT).
_DIAGONAL_PIVOTS = dict(
    diag_pivot_thresh=0.0, relax=1, panel_size=1, options=dict(SymmetricMode=True)
)


def _symmetric_ordering(rows: np.ndarray, cols: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Minimum-degree ordering of the structurally symmetric pattern (rows, cols).

    scipy exposes SuperLU's MMD on A' + A only through a factorization, so
    this factors a diagonally dominant matrix on the pattern, its diagonal
    signed like the KKT matrix's; the ordering depends on the pattern alone.
    Returns the original index at each new position.
    """
    size = len(sign)
    indices, indptr, slot = _pattern(cols, rows, size)
    weights = np.where(rows == cols, (len(rows) + 1.0) * sign[rows], 1.0)
    probe = sp.csc_matrix((np.bincount(slot, weights=weights), indices, indptr), shape=(size, size))
    lu = spla.splu(probe, permc_spec="MMD_AT_PLUS_A", **_DIAGONAL_PIVOTS)
    return np.argsort(lu.perm_c)


class _Cones:
    """Cone layout with SOC blocks grouped by size, plus the entries of H.

    ``soc_groups`` holds one (n_blocks, k) index array per SOC size, so each
    operation on the cone runs once per size group, not once per block.  The
    scaling matrix H = W^{-T} W^{-1} has fixed nonzero positions (the NonNeg
    diagonal plus one dense k x k square per SOC block), stored once as
    ``h_rows``/``h_cols``; each iteration computes only their values.
    """

    def __init__(self, cones: tuple[ConeBlock, ...]):
        parts: dict[str, list[np.ndarray]] = {"free": [], "nonneg": []}
        socs: dict[int, list[np.ndarray]] = {}
        n = 0
        for cb in cones:
            idx = np.arange(n, n + cb.size)
            if cb.kind == "soc":
                socs.setdefault(cb.size, []).append(idx)
            else:
                parts[cb.kind].append(idx)
            n += cb.size
        self.n = n
        self.free_idx = _cat(parts["free"])
        self.nonneg_idx = _cat(parts["nonneg"])
        self.soc_groups = [np.array(socs[k]) for k in sorted(socs)]
        self.cone_idx = np.setdiff1d(np.arange(n), self.free_idx)
        self.degree = len(self.nonneg_idx) + sum(len(g) for g in self.soc_groups)

        # positions of H's entries, in the order h_values() returns them
        rows, cols = [self.nonneg_idx], [self.nonneg_idx]
        for g in self.soc_groups:
            sq = np.broadcast_to(g[:, :, None], g.shape + g.shape[1:])
            rows.append(sq.ravel())
            cols.append(sq.transpose(0, 2, 1).ravel())
        self.h_rows, self.h_cols = _cat(rows), _cat(cols)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.n)
        e[self.nonneg_idx] = 1.0
        for g in self.soc_groups:
            e[g[:, 0]] = 1.0
        return e

    def membership_violation(self, u: np.ndarray) -> float:
        """How far u sits outside the cone (0 when inside)."""
        worst = 0.0
        if len(self.nonneg_idx):
            worst = max(worst, float(-np.min(u[self.nonneg_idx])))
        for g in self.soc_groups:
            blk = u[g]
            tail = np.sqrt(_rowdot(blk[:, 1:], blk[:, 1:]))
            worst = max(worst, float(np.max(tail - blk[:, 0])))
        return worst

    # -- NT scaling -------------------------------------------------------

    def compute_scaling(self, x: np.ndarray, z: np.ndarray):
        """NT scaling: NonNeg weights, per-group (w, sqrt(w), sqrt(w)^-1), lambda."""
        nn = self.nonneg_idx
        w_nn = np.sqrt(x[nn] / z[nn])
        lam = np.zeros(self.n)
        lam[nn] = np.sqrt(x[nn] * z[nn])
        soc_w = []
        for g in self.soc_groups:
            xb, zb = x[g], z[g]
            t = _jsqrt(xb)
            u = _papply(t, zb)
            w = _papply(t, _jinv(_jsqrt(u)))
            wh = _jsqrt(w)
            whi = _jinv(wh)
            soc_w.append((w, wh, whi))
            lam[g] = _papply(whi, xb)
        return w_nn, soc_w, lam

    def h_values(self, w_nn: np.ndarray, soc_w) -> np.ndarray:
        """Entries of W^{-T} W^{-1} at (h_rows, h_cols): z/x on NonNeg, P(w^{-1}) on SOC."""
        return np.concatenate(
            [1.0 / (w_nn * w_nn)] + [_pmat(_jinv(w)).ravel() for w, _, _ in soc_w]
        )

    def h_apply(self, w_nn, soc_w, u: np.ndarray) -> np.ndarray:
        """H u = W^{-1} W^{-1} u (W is symmetric); zero on free coordinates."""
        out = self.apply_w(w_nn, soc_w, self.apply_w(w_nn, soc_w, u, True), True)
        out[self.free_idx] = 0.0
        return out

    def apply_w(self, w_nn, soc_w, u: np.ndarray, inverse: bool) -> np.ndarray:
        """Apply W (inverse=False) or W^{-1} (inverse=True) to the cone part."""
        out = u.copy()
        nn = self.nonneg_idx
        out[nn] = u[nn] / w_nn if inverse else u[nn] * w_nn
        for g, (_, wh, whi) in zip(self.soc_groups, soc_w):
            out[g] = _papply(whi if inverse else wh, u[g])
        return out

    def jprod_all(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        nn = self.nonneg_idx
        out[nn] = u[nn] * v[nn]
        for g in self.soc_groups:
            out[g] = _jprod(u[g], v[g])
        return out

    def jdiv_all(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        nn = self.nonneg_idx
        out[nn] = d[nn] / lam[nn]
        for g in self.soc_groups:
            out[g] = _jdiv(lam[g], d[g])
        return out

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        alpha = math.inf
        nn = self.nonneg_idx
        if len(nn):
            neg = du[nn] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-u[nn][neg] / du[nn][neg])))
        for g in self.soc_groups:
            alpha = min(alpha, float(np.min(_soc_step(u[g], du[g]))))
        return alpha


class _Workspace:
    """Everything one call of solve_socp computes once and reuses.

    Holds the program, its cone layout, A' (transposed once), a symmetric
    fill-reducing ordering ``perm`` of the KKT matrix
    [[Q + H + delta I, A'], [A, -delta I]] and that matrix itself, ``K``,
    stored already permuted: ``kkt_slots`` sends each source entry (H's
    entries, the Q and delta diagonals, A', A, the -delta diagonal, in that
    order) to its slot, so a factorization only sums a new data vector into
    ``K.data``.  ``pivoting`` selects SuperLU's partial pivoting over static
    diagonal pivots.  A workspace belongs to one solve; nothing is cached
    between solves.
    """

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        n, m = self.n, self.m = prog.n_vars, prog.n_eq
        self.cones = cones = _Cones(prog.cones)
        self.A = prog.A
        self.AT = prog.A.T.tocsr()
        self.bnorm = 1.0 + (float(np.max(np.abs(prog.b))) if m else 0.0)
        self.cnorm = 1.0 + float(np.max(np.abs(prog.c)))
        self.q = prog.q if prog.q is not None else np.zeros(n)

        size = n + m
        a = prog.A.tocoo()
        diag_n, diag_m = np.arange(n), np.arange(n, size)
        rows = np.concatenate([cones.h_rows, diag_n, diag_n, a.col, a.row + n, diag_m])
        cols = np.concatenate([cones.h_cols, diag_n, diag_n, a.row + n, a.col, diag_m])
        sign = np.concatenate([np.ones(n), -np.ones(m)])
        self.perm = _symmetric_ordering(rows, cols, sign)
        self.sign = sign[self.perm]
        new = np.empty(size, dtype=int)
        new[self.perm] = np.arange(size)
        indices, indptr, self.kkt_slots = _pattern(new[cols], new[rows], size)
        self.K = sp.csc_matrix((np.zeros(len(indices)), indices, indptr), shape=(size, size))
        self.a_data = np.concatenate([a.data, a.data])
        self.pivoting = False
        self.lu = None
        self.delta = 0.0

    def kkt(self, h: np.ndarray, delta: float) -> sp.csc_matrix:
        """Refill K, the permuted KKT matrix, for H's entries h."""
        n, m = self.n, self.m
        weights = np.concatenate(
            [h, self.q, np.full(n, delta), self.a_data, np.full(m, -delta)]
        )
        self.K.data[:] = np.bincount(self.kkt_slots, weights=weights, minlength=len(self.K.data))
        return self.K

    def factor(self, h: np.ndarray, delta: float) -> bool:
        """Factor the KKT matrix for H's entries h; False if SuperLU fails."""
        K = self.kkt(h, delta)
        try:
            self.lu = (
                spla.splu(K) if self.pivoting
                else spla.splu(K, permc_spec="NATURAL", **_DIAGONAL_PIVOTS)
            )
        except (RuntimeError, ValueError):
            return False
        self.delta = delta
        return True

    def solve(self, rx, ry, refine: int = 1):
        """Solve with the current factor, refined against the unregularized system."""
        n = self.n
        r = np.concatenate([rx, ry])[self.perm]
        sol = self.lu.solve(r)
        for _ in range(refine):
            sol = sol + self.lu.solve(r - (self.K @ sol - self.delta * self.sign * sol))
        out = np.empty_like(sol)
        out[self.perm] = sol
        return out[:n], out[n:]

    def residuals(self, x, y, z):
        """Dual residual Qx + c - A'y - z and primal residual Ax - b."""
        prog = self.prog
        qx = prog.q * x if prog.q is not None else np.zeros(self.n)
        return qx + prog.c - self.AT @ y - z, self.A @ x - prog.b

    def finish(self, status, x, y, z, iters) -> ConicSolution:
        r_d, r_p = self.residuals(x, y, z)
        cone = self.cones.cone_idx
        gap = float(x[cone] @ z[cone]) if len(cone) else 0.0
        s = np.zeros(self.n)
        s[cone] = x[cone]
        return ConicSolution(
            status=status,
            x=x,
            y=y,
            z=z,
            s=s,
            obj=self.prog.objective(x),
            residuals={
                "primal": float(np.max(np.abs(r_p))) if self.m else 0.0,
                "dual": float(np.max(np.abs(r_d))),
                "gap": abs(gap),
            },
            iterations=iters,
        )

    def classify(self, x, y, z, iters, scale=1e8) -> ConicSolution:
        """Divergence heuristics; ties favor infeasible.

        Primal infeasibility shows as a diverging dual ray with positive
        b'y and vanishing homogeneous residual A'y + z; unboundedness as a
        diverging primal ray that stays equality-feasible with negative
        linear objective along the ray.
        """
        prog, m = self.prog, self.m
        xs = float(np.linalg.norm(x, np.inf))
        ys = (float(np.linalg.norm(y, np.inf)) if m else 0.0) + float(
            np.linalg.norm(z, np.inf)
        )
        status = ITER_LIMIT
        if ys > scale:
            hom_d = float(np.linalg.norm(self.AT @ y + z, np.inf)) / ys
            if float(prog.b @ y) > 1e-8 * ys and hom_d <= 1e-6:
                status = INFEASIBLE
        if status == ITER_LIMIT and xs > scale:
            pr_ray = (float(np.max(np.abs(self.A @ x - prog.b))) if m else 0.0) / xs
            lin_ray = float(prog.c @ x + (prog.q @ (x * x) if prog.q is not None else 0.0)) / xs
            if pr_ray <= 1e-6 and lin_ray < -1e-8:
                status = UNBOUNDED
        if status == ITER_LIMIT and (ys > scale or xs > scale):
            # both certificates weak but iterates clearly diverged
            status = INFEASIBLE if ys >= xs else UNBOUNDED
        return self.finish(status, x, y, z, iters)


def solve_socp(prog: ConicProgram, tol: float = 1e-8, max_iter: int = 200) -> ConicSolution:
    """Solve a standard-form cone program to the requested tolerance.

    Returns a point whose primal, dual and complementarity-gap residuals are
    all below ``tol``, or a non-optimal status (never raises on singular or
    diverging systems).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n, m = prog.n_vars, prog.n_eq

    if n == 0:
        ok = m == 0 or float(np.max(np.abs(prog.b))) <= tol
        return ConicSolution(
            status=OPTIMAL if ok else INFEASIBLE,
            x=np.zeros(0),
            y=np.zeros(m),
            z=np.zeros(0),
            s=np.zeros(0),
            obj=prog.c0,
            residuals={"primal": 0.0, "dual": 0.0, "gap": 0.0},
        )

    ws = _Workspace(prog)
    run = _ipm_loop if ws.cones.degree else _solve_free
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = run(ws, tol, max_iter)
        if sol.status != OPTIMAL:
            # a static pivot can shrink toward zero on nearly singular
            # systems; rerun the program under partial pivoting
            ws.pivoting = True
            first = sol.iterations
            sol = run(ws, tol, max_iter)
            sol.iterations += first
    return sol


def _solve_free(ws: _Workspace, tol: float, max_iter: int) -> ConicSolution:
    """A purely free program: a single regularized KKT solve."""
    prog, n, m = ws.prog, ws.n, ws.m
    if not ws.factor(np.empty(0), 1e-10):
        return ConicSolution(
            status=INFEASIBLE,
            x=np.zeros(n),
            y=np.zeros(m),
            z=np.zeros(n),
            s=np.zeros(n),
            obj=float("nan"),
            residuals={"primal": float("inf"), "dual": float("inf"), "gap": 0.0},
        )
    x, ytil = ws.solve(-prog.c, prog.b, refine=2)
    sol = ws.finish(OPTIMAL, x, -ytil, np.zeros(n), 1)
    scaled_ok = (
        sol.residuals["primal"] / ws.bnorm <= 10 * max(tol, 1e-9)
        and sol.residuals["dual"] / ws.cnorm <= 10 * max(tol, 1e-9)
    )
    if not scaled_ok:
        sol.status = INFEASIBLE
    return sol


def _ipm_loop(ws: _Workspace, tol: float, max_iter: int) -> ConicSolution:
    prog, cones, m = ws.prog, ws.cones, ws.m
    cone_idx, free_idx = cones.cone_idx, cones.free_idx

    # interior starting point
    e = cones.identity()
    x = e * max(1.0, math.sqrt(ws.bnorm))
    z = e * max(1.0, math.sqrt(ws.cnorm))
    y = np.zeros(m)
    nu = cones.degree

    best = None
    for it in range(1, max_iter + 1):
        r_d, r_p = ws.residuals(x, y, z)
        gap = float(x[cone_idx] @ z[cone_idx])
        mu = gap / nu
        obj = prog.objective(x)

        rel_p = (float(np.max(np.abs(r_p))) / ws.bnorm) if m else 0.0
        rel_d = float(np.max(np.abs(r_d))) / ws.cnorm
        rel_g = abs(gap) / (1.0 + abs(obj))
        if rel_p <= tol and rel_d <= tol and rel_g <= tol:
            return ws.finish(OPTIMAL, x, y, z, it)
        if best is None or rel_p + rel_d + rel_g < best[0]:
            best = (rel_p + rel_d + rel_g, x.copy(), y.copy(), z.copy())
        xs = float(np.linalg.norm(x, np.inf))
        ys = (float(np.linalg.norm(y, np.inf)) if m else 0.0) + float(
            np.linalg.norm(z, np.inf)
        )
        if xs > 1e8 or ys > 1e8:
            verdict = ws.classify(x, y, z, it)
            if verdict.status != ITER_LIMIT:
                return verdict

        w_nn, soc_w, lam = cones.compute_scaling(x, z)
        h = cones.h_values(w_nn, soc_w)
        if not (ws.factor(h, 1e-9) or ws.factor(h, 1e-6)):
            return ws.classify(x, y, z, it)

        lam_lam = cones.jprod_all(lam, lam)

        def direction(d_target):
            g = cones.jdiv_all(lam, d_target)
            wig = cones.apply_w(w_nn, soc_w, g, inverse=True)
            rx = -r_d + wig
            rx[free_idx] = -r_d[free_idx]
            # free coordinates carry no complementarity term
            dx, dyt = ws.solve(rx, -r_p)
            dy = -dyt
            dz = wig - cones.h_apply(w_nn, soc_w, dx)
            return dx, dy, dz

        # predictor
        dx_a, dy_a, dz_a = direction(-lam_lam)
        a_x = cones.max_step(x, dx_a)
        a_z = cones.max_step(z, dz_a)
        a_aff = min(1.0, a_x, a_z)
        x_a = x + a_aff * dx_a
        z_a = z + a_aff * dz_a
        mu_aff = float(x_a[cone_idx] @ z_a[cone_idx]) / nu
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector
        wdx = cones.apply_w(w_nn, soc_w, dx_a, inverse=True)
        wdz = cones.apply_w(w_nn, soc_w, dz_a, inverse=False)
        d_cor = sigma * mu * e - lam_lam - cones.jprod_all(wdx, wdz)
        dx, dy, dz = direction(d_cor)

        a_x = cones.max_step(x, dx)
        a_z = cones.max_step(z, dz)
        alpha = min(1.0, 0.99 * a_x, 0.99 * a_z)
        if not math.isfinite(alpha) or alpha <= 1e-14:
            return ws.classify(x, y, z, it, scale=1e5)
        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * dz

    # iteration cap: report the best iterate seen
    if best is not None:
        _, x, y, z = best
    return ws.finish(ITER_LIMIT, x, y, z, max_iter)


def check_kkt(prog: ConicProgram, sol: ConicSolution) -> dict[str, float]:
    """Recompute optimality residuals independently of the solver internals.

    Returns the infinity norms of the primal and dual residuals, the
    complementarity gap and the worst cone-membership violation of x and z.
    """
    if sol.status != OPTIMAL:
        raise ValueError("check_kkt expects an optimal solution")
    n, m = prog.n_vars, prog.n_eq
    if n == 0:
        return {"primal": 0.0, "dual": 0.0, "gap": 0.0, "cone": 0.0}
    cones = _Cones(prog.cones)
    r_p = prog.A @ sol.x - prog.b if m else np.zeros(0)
    qx = prog.q * sol.x if prog.q is not None else 0.0
    r_d = qx + prog.c - (prog.A.T @ sol.y if m else 0.0) - sol.z
    gap = (
        float(sol.x[cones.cone_idx] @ sol.z[cones.cone_idx])
        if len(cones.cone_idx)
        else 0.0
    )
    cone_viol = max(
        cones.membership_violation(sol.x), cones.membership_violation(sol.z)
    )
    return {
        "primal": float(np.max(np.abs(r_p))) if m else 0.0,
        "dual": float(np.max(np.abs(r_d))),
        "gap": abs(gap),
        "cone": cone_viol,
    }


@dataclass
class ProbeResult:
    estimate: float
    dual: float
    conclusive: bool


def dual_sensitivity_probe(
    prog: ConicProgram,
    sol: ConicSolution,
    eq_index: int,
    delta: float = 1e-5,
    tol: float = 1e-9,
) -> ProbeResult:
    """Certify an equality dual by central finite differences on b[eq_index].

    Re-solves the program at b +/- delta; a failed re-solve marks the probe
    inconclusive rather than raising.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sol.status != OPTIMAL:
        raise ValueError("probe requires an optimal base solution")
    objs = []
    for sign in (+1.0, -1.0):
        b2 = prog.b.copy()
        b2[eq_index] += sign * delta
        pert = ConicProgram(
            c=prog.c, A=prog.A, b=b2, cones=prog.cones, q=prog.q, c0=prog.c0
        )
        s2 = solve_socp(pert, tol=tol)
        if s2.status != OPTIMAL:
            return ProbeResult(float("nan"), float(sol.y[eq_index]), False)
        objs.append(s2.obj)
    est = (objs[0] - objs[1]) / (2.0 * delta)
    return ProbeResult(est, float(sol.y[eq_index]), True)


def dump_program(prog: ConicProgram, path: str) -> None:
    """Write a plain-text standard-form dump (grammar in docs/formats.md)."""
    lines = [f"VARS {prog.n_vars}", f"EQS {prog.n_eq}", f"CONST {prog.c0!r}"]
    lines.append("CONES " + " ".join(f"{cb.kind}:{cb.size}" for cb in prog.cones))
    lines.append("C " + " ".join(repr(v) for v in prog.c))
    if prog.q is not None:
        lines.append("Q " + " ".join(repr(v) for v in prog.q))
    coo = prog.A.tocoo()
    for i, j, v in sorted(zip(coo.row, coo.col, coo.data), key=lambda t: (t[0], t[1])):
        lines.append(f"A {i} {j} {v!r}")
    for i, v in enumerate(prog.b):
        lines.append(f"B {i} {v!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
