"""Cone programs in standard form and a compact primal-dual interior-point solver.

Problems take the form

    minimize    c'x + 0.5 * sum_i q_i x_i^2 + c0
    subject to  A x = b,   G x + s = h,   s in K

where x is free and K is an ordered product of NonNeg and SecondOrder blocks
that partitions the slack s, i.e. the rows of G.  Builders state bounds and
cone constraints directly as rows of G; how a cone is represented is known
to this module alone.  The solver is a Mehrotra predictor-corrector method
with Nesterov-Todd scaling of (s, z); equality duals are reported with the
convention  d(obj)/d(b_i) = y_i,  which is what lets a nodal-balance dual be
read directly as a marginal price.

Each solve builds one workspace (``_Workspace``) that lives for that solve
only.  Its cone layout groups the second-order blocks by size into
(n_blocks, k) index arrays, so the Jordan algebra and the NT scaling run as
one numpy call per size group rather than a Python loop over blocks.

The regularized KKT matrix

    [[Q + delta I, A',        G'           ],
     [A,           -delta I,  0            ],
     [G,           0,         -W^2 - delta I]]

is symmetric quasi-definite, so it can be factored under any symmetric
ordering without pivoting (Vanderbei, SIAM J. Optim. 1995); ECOS pairs this
with static regularization and iterative refinement (Domahidi, Chu and Boyd,
ECC 2013).  Its pattern does not change between iterations.  The workspace
therefore computes one minimum-degree ordering per solve, stores the matrix
already permuted with a map from each source entry to its slot, and each
iteration only refills the data and factors it with diagonal pivots.
Solves and one refinement step against the unregularized matrix stay in the
permuted coordinates; outside the KKT matrix W is applied through the NT
scaling rather than as a matrix.  Diagonal pivots can shrink toward zero on
nearly singular programs and stall the iteration, so a run that ends
non-optimal is repeated with SuperLU's partial pivoting.  Either way an
optimal answer is only returned when residuals computed from the program
itself, not from the factorization, meet the tolerance.

Every program takes this one path, including those without variables or
without cone rows.  The barrier degree is floored at 1 so that mu stays
defined when there are no cone rows; such a program is then an
equality-constrained QP, which the first full Newton step solves, and its
infeasible or unbounded cases end through the same divergence tests.

Everything here is deterministic: no randomization, no threading, and the
same inputs always produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "NonNeg",
    "SecondOrder",
    "ConeBlock",
    "ConicProgram",
    "ConicSolution",
    "SparseRows",
    "SolveFailed",
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


class SolveFailed(RuntimeError):
    """A solve ended without a usable answer; names the agent and the status."""

    def __init__(self, agent: str, status: str, detail: str = ""):
        super().__init__(
            f"{agent}: solve failed with status {status}" + (f" ({detail})" if detail else "")
        )
        self.agent = agent
        self.status = status


@dataclass(frozen=True)
class ConeBlock:
    kind: str  # "nonneg" | "soc"
    size: int

    def __post_init__(self):
        if self.kind not in ("nonneg", "soc"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("cone block must have positive size")
        if self.kind == "soc" and self.size < 2:
            raise ValueError("second-order cone needs dimension >= 2")


def NonNeg(k: int) -> ConeBlock:
    return ConeBlock("nonneg", k)


def SecondOrder(k: int) -> ConeBlock:
    return ConeBlock("soc", k)


def _csr(M) -> sp.csr_matrix:
    if sp.issparse(M):
        return M.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


def _norm(*vs: np.ndarray) -> float:
    """Largest absolute entry over the given vectors (0 when all are empty)."""
    return max([float(abs(v).max()) for v in vs if v.size], default=0.0)


@dataclass
class ConicProgram:
    """Standard-form cone program with a diagonal quadratic term (zeros when omitted)."""

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    G: sp.csr_matrix
    h: np.ndarray
    cones: tuple[ConeBlock, ...]
    q: np.ndarray | None = None
    c0: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.A, self.G = _csr(self.A), _csr(self.G)
        n = self.c.shape[0]
        self.q = np.zeros(n) if self.q is None else np.asarray(self.q, dtype=float)
        if np.any(self.q < 0):
            raise ValueError("quadratic diagonal must be elementwise nonnegative")
        if self.q.shape != self.c.shape:
            raise ValueError("quadratic diagonal must match variable count")
        for name, M, rhs in (("A", self.A, self.b), ("G", self.G, self.h)):
            if M.shape != (rhs.shape[0], n):
                raise ValueError(f"{name} has shape {M.shape}, expected ({rhs.shape[0]}, {n})")
        p = sum(cb.size for cb in self.cones)
        if p != self.h.shape[0]:
            raise ValueError(f"cone blocks cover {p} rows but h has {self.h.shape[0]}")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_eq(self) -> int:
        return self.b.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x) + self.c0 + 0.5 * float(self.q @ (x * x))


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


class SparseRows:
    """Constraint rows collected one at a time, for A and b or for G and h.

    ``add`` appends the row  sum_j val_j x_{col_j}  with right-hand side
    ``rhs`` and returns its index; repeated columns in a row are summed.
    """

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []

    def add(self, entries, rhs: float) -> int:
        r = len(self.rhs)
        for col, val in entries:
            self.cols.append(col)
            self.vals.append(val)
        self.rows.extend([r] * (len(self.cols) - len(self.rows)))
        self.rhs.append(float(rhs))
        return r

    def matrix(self, n: int) -> tuple[sp.csr_matrix, np.ndarray]:
        """The rows as a (rows, n) CSR matrix, and their right-hand sides."""
        shape = (len(self.rhs), n)
        return sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=shape), np.array(self.rhs)


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
    """Cone layout of the slack rows, SOC blocks grouped by size, plus W^2's pattern.

    ``soc_groups`` holds one (n_blocks, k) index array per SOC size, so each
    operation on the cone runs once per size group, not once per block.  The
    squared NT scaling W^2 has fixed nonzero positions (the NonNeg diagonal
    plus one dense k x k square per SOC block), stored once as
    ``w2_rows``/``w2_cols``; each iteration computes only their values.
    """

    def __init__(self, cones: tuple[ConeBlock, ...]):
        nonneg: list[np.ndarray] = []
        socs: dict[int, list[np.ndarray]] = {}
        n = 0
        for cb in cones:
            idx = np.arange(n, n + cb.size)
            if cb.kind == "soc":
                socs.setdefault(cb.size, []).append(idx)
            else:
                nonneg.append(idx)
            n += cb.size
        self.n = n
        self.nonneg_idx = _cat(nonneg)
        self.soc_groups = [np.array(socs[k]) for k in sorted(socs)]
        self.degree = len(self.nonneg_idx) + sum(len(g) for g in self.soc_groups)

        # positions of W^2's entries, in the order w2_values() returns them
        rows, cols = [self.nonneg_idx], [self.nonneg_idx]
        for g in self.soc_groups:
            sq = np.broadcast_to(g[:, :, None], g.shape + g.shape[1:])
            rows.append(sq.ravel())
            cols.append(sq.transpose(0, 2, 1).ravel())
        self.w2_rows, self.w2_cols = _cat(rows), _cat(cols)

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

    def compute_scaling(self, s: np.ndarray, z: np.ndarray):
        """NT scaling: NonNeg weights, per-group (w, sqrt(w), sqrt(w)^-1), lambda."""
        nn = self.nonneg_idx
        w_nn = np.sqrt(s[nn] / z[nn])
        lam = np.zeros(self.n)
        lam[nn] = np.sqrt(s[nn] * z[nn])
        soc_w = []
        for g in self.soc_groups:
            sb, zb = s[g], z[g]
            t = _jsqrt(sb)
            u = _papply(t, zb)
            w = _papply(t, _jinv(_jsqrt(u)))
            wh = _jsqrt(w)
            whi = _jinv(wh)
            soc_w.append((w, wh, whi))
            lam[g] = _papply(whi, sb)
        return w_nn, soc_w, lam

    def w2_values(self, w_nn: np.ndarray, soc_w) -> np.ndarray:
        """Entries of W^2 at (w2_rows, w2_cols): s/z on NonNeg, P(w) on SOC."""
        return np.concatenate([w_nn * w_nn] + [_pmat(w).ravel() for w, _, _ in soc_w])

    def apply_w(self, w_nn, soc_w, u: np.ndarray, inverse: bool) -> np.ndarray:
        """Apply W (inverse=False) or W^{-1} (inverse=True)."""
        out = np.empty_like(u)
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

    Holds the program, its cone layout, the constraint matrix C = [A; G]
    and its transpose (so one product serves both row sets), a symmetric
    fill-reducing ordering ``perm`` of the KKT matrix over (x, y, z) and that
    matrix itself, ``K``, stored already permuted: ``kkt_slots`` sends each
    source entry (the Q and delta diagonals, C', C, the -delta diagonal of
    the y block, the -W^2 entries and the -delta diagonal of the z block, in
    that order) to its slot, so a factorization only sums a new data vector
    into ``K.data``.  ``pivoting``
    selects SuperLU's partial pivoting over static diagonal pivots.  A
    workspace belongs to one solve; nothing is cached between solves.
    """

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        n, m, p = self.n, self.m, self.p = prog.n_vars, prog.n_eq, len(prog.h)
        self.cones = cones = _Cones(prog.cones)
        self.C = sp.vstack([prog.A, prog.G], format="csr")
        self.CT = self.C.T.tocsr()
        self.bnorm = 1.0 + _norm(prog.b, prog.h)
        self.cnorm = 1.0 + _norm(prog.c)

        size = n + m + p
        c = self.C.tocoo()
        dx, dy, dz = np.arange(n), np.arange(n, n + m), np.arange(n + m, size)
        rows = np.concatenate([dx, dx, c.col, c.row + n, dy, cones.w2_rows + n + m, dz])
        cols = np.concatenate([dx, dx, c.row + n, c.col, dy, cones.w2_cols + n + m, dz])
        sign = np.concatenate([np.ones(n), -np.ones(m + p)])
        self.perm = _symmetric_ordering(rows, cols, sign)
        self.sign = sign[self.perm]
        new = np.empty(size, dtype=int)
        new[self.perm] = np.arange(size)
        indices, indptr, self.kkt_slots = _pattern(new[cols], new[rows], size)
        self.K = sp.csc_matrix((np.zeros(len(indices)), indices, indptr), shape=(size, size))
        self.c_data = np.concatenate([c.data, c.data])
        self.pivoting = False
        self.lu = None
        self.delta = 0.0

    def kkt(self, w2: np.ndarray, delta: float) -> sp.csc_matrix:
        """Refill K, the permuted KKT matrix, for W^2's entries w2."""
        n, m, p, q = self.n, self.m, self.p, self.prog.q
        weights = np.concatenate(
            [q, np.full(n, delta), self.c_data, np.full(m, -delta), -w2, np.full(p, -delta)]
        )
        self.K.data[:] = np.bincount(self.kkt_slots, weights=weights, minlength=len(self.K.data))
        return self.K

    def factor(self, w2: np.ndarray, delta: float) -> bool:
        """Factor the KKT matrix for W^2's entries w2; False if SuperLU fails."""
        K = self.kkt(w2, delta)
        try:
            self.lu = (
                spla.splu(K) if self.pivoting
                else spla.splu(K, permc_spec="NATURAL", **_DIAGONAL_PIVOTS)
            )
        except (RuntimeError, ValueError):
            return False
        self.delta = delta
        return True

    def solve(self, rx, ry, rz, refine: int = 1):
        """Solve with the current factor, refined against the unregularized system."""
        n, m = self.n, self.m
        r = np.concatenate([rx, ry, rz])[self.perm]
        sol = self.lu.solve(r)
        for _ in range(refine):
            sol = sol + self.lu.solve(r - (self.K @ sol - self.delta * self.sign * sol))
        out = np.empty_like(sol)
        out[self.perm] = sol
        return out[:n], out[n : n + m], out[n + m :]

    def residuals(self, x, y, s, z):
        """Dual residual Qx + c - A'y + G'z and primal residuals Ax - b, Gx + s - h."""
        prog, m = self.prog, self.m
        cx = self.C @ x
        return (
            prog.q * x + prog.c - self.CT @ np.concatenate([y, -z]),
            cx[:m] - prog.b,
            cx[m:] + s - prog.h,
        )

    def finish(self, status, x, y, s, z, iters) -> ConicSolution:
        r_d, r_p, r_g = self.residuals(x, y, s, z)
        return ConicSolution(
            status=status,
            x=x,
            y=y,
            z=z,
            s=s,
            obj=self.prog.objective(x),
            residuals={"primal": _norm(r_p, r_g), "dual": _norm(r_d), "gap": abs(float(s @ z))},
            iterations=iters,
        )

    def classify(self, x, y, s, z, iters, scale=1e8) -> ConicSolution:
        """Divergence heuristics; ties favor infeasible.

        Primal infeasibility shows as a diverging dual ray with positive
        b'y - h'z and vanishing homogeneous residual A'y - G'z; unboundedness
        as a diverging primal ray that stays feasible in both row sets with
        negative linear objective along the ray.
        """
        prog = self.prog
        xs = _norm(x, s)
        ys = _norm(y) + _norm(z)
        status = ITER_LIMIT
        if ys > scale:
            hom_d = _norm(self.CT @ np.concatenate([y, -z])) / ys
            if float(prog.b @ y - prog.h @ z) > 1e-8 * ys and hom_d <= 1e-6:
                status = INFEASIBLE
        if status == ITER_LIMIT and xs > scale:
            _, r_p, r_g = self.residuals(x, y, s, z)
            pr_ray = _norm(r_p, r_g) / xs
            lin_ray = float(prog.c @ x + prog.q @ (x * x)) / xs
            if pr_ray <= 1e-6 and lin_ray < -1e-8:
                status = UNBOUNDED
        if status == ITER_LIMIT and (ys > scale or xs > scale):
            # both certificates weak but iterates clearly diverged
            status = INFEASIBLE if ys >= xs else UNBOUNDED
        return self.finish(status, x, y, s, z, iters)


def solve_socp(prog: ConicProgram, tol: float = 1e-8, max_iter: int = 200) -> ConicSolution:
    """Solve a standard-form cone program to the requested tolerance.

    Returns a point whose primal, dual and complementarity-gap residuals are
    all below ``tol``, or a non-optimal status (never raises on singular or
    diverging systems).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ws = _Workspace(prog)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = _ipm_loop(ws, tol, max_iter)
        if sol.status != OPTIMAL:
            # a static pivot can shrink toward zero on nearly singular
            # systems; rerun the program under partial pivoting
            ws.pivoting = True
            first = sol.iterations
            sol = _ipm_loop(ws, tol, max_iter)
            sol.iterations += first
    return sol


def _ipm_loop(ws: _Workspace, tol: float, max_iter: int) -> ConicSolution:
    prog, cones = ws.prog, ws.cones

    # interior starting point for (s, z); x and y start at zero
    e = cones.identity()
    x = np.zeros(ws.n)
    y = np.zeros(ws.m)
    s = e * max(1.0, math.sqrt(ws.bnorm))
    z = e * max(1.0, math.sqrt(ws.cnorm))
    nu = max(cones.degree, 1)  # keeps mu defined without cone rows

    best = None
    for it in range(1, max_iter + 1):
        r_d, r_p, r_g = ws.residuals(x, y, s, z)
        gap = float(s @ z)
        mu = gap / nu
        obj = prog.objective(x)

        rel_p = _norm(r_p, r_g) / ws.bnorm
        rel_d = _norm(r_d) / ws.cnorm
        rel_g = abs(gap) / (1.0 + abs(obj))
        if rel_p <= tol and rel_d <= tol and rel_g <= tol:
            return ws.finish(OPTIMAL, x, y, s, z, it)
        if best is None or rel_p + rel_d + rel_g < best[0]:
            best = (rel_p + rel_d + rel_g, x.copy(), y.copy(), s.copy(), z.copy())
        if _norm(x, s) > 1e8 or _norm(y) + _norm(z) > 1e8:
            verdict = ws.classify(x, y, s, z, it)
            if verdict.status != ITER_LIMIT:
                return verdict

        w_nn, soc_w, lam = cones.compute_scaling(s, z)
        w2 = cones.w2_values(w_nn, soc_w)
        if not (ws.factor(w2, 1e-9) or ws.factor(w2, 1e-6)):
            return ws.classify(x, y, s, z, it)

        lam_lam = cones.jprod_all(lam, lam)

        def direction(d_target):
            # linearized complementarity lam o (W^-1 ds + W dz) = d_target
            # gives ds = W g - W^2 dz with g = lam \ d_target
            g = cones.jdiv_all(lam, d_target)
            wg = cones.apply_w(w_nn, soc_w, g, inverse=False)
            dx, dyt, dz = ws.solve(-r_d, -r_p, -r_g - wg)
            ds = cones.apply_w(
                w_nn, soc_w, g - cones.apply_w(w_nn, soc_w, dz, inverse=False), inverse=False
            )
            return dx, -dyt, ds, dz

        # predictor
        dx_a, dy_a, ds_a, dz_a = direction(-lam_lam)
        a_aff = min(1.0, cones.max_step(s, ds_a), cones.max_step(z, dz_a))
        mu_aff = float((s + a_aff * ds_a) @ (z + a_aff * dz_a)) / nu
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector
        wds = cones.apply_w(w_nn, soc_w, ds_a, inverse=True)
        wdz = cones.apply_w(w_nn, soc_w, dz_a, inverse=False)
        d_cor = sigma * mu * e - lam_lam - cones.jprod_all(wds, wdz)
        dx, dy, ds, dz = direction(d_cor)

        alpha = min(1.0, 0.99 * cones.max_step(s, ds), 0.99 * cones.max_step(z, dz))
        if not math.isfinite(alpha) or alpha <= 1e-14:
            return ws.classify(x, y, s, z, it, scale=1e5)
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz

    # iteration cap: report the best iterate seen
    if best is not None:
        _, x, y, s, z = best
    return ws.finish(ITER_LIMIT, x, y, s, z, max_iter)


def check_kkt(prog: ConicProgram, sol: ConicSolution) -> dict[str, float]:
    """Recompute optimality residuals independently of the solver internals.

    Returns the infinity norm of the primal residuals Ax - b and Gx + s - h,
    that of the dual residual, the complementarity gap s'z and the worst
    cone-membership violation of s and z.
    """
    if sol.status != OPTIMAL:
        raise ValueError("check_kkt expects an optimal solution")
    cones = _Cones(prog.cones)
    x, s, z = sol.x, sol.s, sol.z
    r_d = prog.q * x + prog.c - prog.A.T @ sol.y + prog.G.T @ z
    return {
        "primal": _norm(prog.A @ x - prog.b, prog.G @ x + s - prog.h),
        "dual": _norm(r_d),
        "gap": abs(float(s @ z)),
        "cone": max(cones.membership_violation(s), cones.membership_violation(z)),
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
        s2 = solve_socp(replace(prog, b=b2), tol=tol)
        if s2.status != OPTIMAL:
            return ProbeResult(float("nan"), float(sol.y[eq_index]), False)
        objs.append(s2.obj)
    est = (objs[0] - objs[1]) / (2.0 * delta)
    return ProbeResult(est, float(sol.y[eq_index]), True)


def dump_program(prog: ConicProgram, path: str) -> None:
    """Write a plain-text standard-form dump (grammar in docs/formats.md)."""
    lines = [f"VARS {prog.n_vars}", f"EQS {prog.n_eq}", f"CONST {float(prog.c0)!r}"]
    lines.append("CONES " + " ".join(f"{cb.kind}:{cb.size}" for cb in prog.cones))
    lines.append("C " + " ".join(repr(v) for v in prog.c.tolist()))
    if np.any(prog.q):
        lines.append("Q " + " ".join(repr(v) for v in prog.q.tolist()))
    for tag, M, rhs_tag, rhs in (("A", prog.A, "B", prog.b), ("G", prog.G, "H", prog.h)):
        coo = M.tocoo()
        for i, j, v in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())):
            lines.append(f"{tag} {i} {j} {v!r}")
        lines.extend(f"{rhs_tag} {i} {v!r}" for i, v in enumerate(rhs.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
