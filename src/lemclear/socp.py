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

Each program of a solve gets one workspace (``_Workspace``) that lives for
that solve only.  Its cone layout groups the second-order blocks by size
into (n_blocks, k) index arrays, so the Jordan algebra and the NT scaling
run as one numpy call per size group rather than a Python loop over blocks.

The regularized KKT matrix

    [[Q + delta I, A',        G'           ],
     [A,           -delta I,  0            ],
     [G,           0,         -W^2 - delta I]]

is symmetric quasi-definite, so it can be factored under any symmetric
ordering without pivoting (Vanderbei, SIAM J. Optim. 1995); ECOS pairs this
with static regularization and iterative refinement (Domahidi, Chu and Boyd,
ECC 2013).  Its pattern does not change between iterations.  The workspace
therefore holds one minimum-degree ordering, the matrix's pattern already
permuted and a map from each source entry to its slot, so each iteration
only refills the data and factors it with diagonal pivots.  Programs of one
solve that share a sparsity pattern (the hours of a network pass) share one
ordering.  Solves and one refinement step against the unregularized matrix
stay in the permuted coordinates; outside the KKT matrix W is applied
through the NT scaling rather than as a matrix.

``solve_socp_batch`` runs independent programs in lockstep rounds, one
Mehrotra iteration of every live program per round (``_ipm_loop``).  The
round stacks the programs' vectors and cone layouts, so the cone algebra,
the residual products and the KKT refill run once per round, and factors
the block-diagonal KKT matrix once: each block in its own program's
ordering, so no elimination crosses blocks.  Step lengths, centering, the
stop and divergence tests, the best iterate, the status and the iteration
count stay each program's own, and a program that finishes leaves the
stack.  No arithmetic mixes two programs, so a program's answer is bit for
bit the same alone or in any batch, in any order; ``solve_socp`` is the
batch of one.  Diagonal pivots can shrink toward zero on nearly singular
programs and stall the iteration, so a program that ends non-optimal
without a certificate of infeasibility or unboundedness is run again, on
its own, with SuperLU's partial pivoting.  Either way an optimal answer is
only returned when residuals computed from the program itself, not from
the factorization, meet the tolerance.

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
    "solve_socp_batch",
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
        return M if M.format == "csr" else M.tocsr()
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
        """The rows as a (rows, n) CSR matrix, and their right-hand sides.

        Each row's entries are sorted by column and repeated columns merged,
        as scipy's COO conversion would leave them.
        """
        rows, cols = np.array(self.rows, dtype=int), np.array(self.cols, dtype=int)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], np.array(self.vals, dtype=float)[order]
        first = np.flatnonzero(np.diff(rows * n + cols, prepend=-1))
        if len(first) < len(order):
            vals = np.add.reduceat(vals, first)
        indptr = np.searchsorted(rows[first], np.arange(len(self.rhs) + 1))
        shape = (len(self.rhs), n)
        return sp.csr_matrix((vals, cols[first], indptr), shape=shape), np.array(self.rhs)


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


def _offsets(lengths) -> np.ndarray:
    """Start of each of the consecutive parts of the given lengths, then the total."""
    return np.cumsum([0, *lengths], dtype=int)


def _segments(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Where the nonempty ones among consecutive parts of the given lengths
    start, and their positions among the parts."""
    lengths = np.asarray(lengths, dtype=int)
    nonempty = np.flatnonzero(lengths)
    return (np.cumsum(lengths) - lengths)[nonempty], nonempty


def _segmin(values: np.ndarray, segments, out: np.ndarray) -> None:
    """Lower out[i] to the least of values over segment i, ignoring segments that hold a NaN."""
    starts, owners = segments
    if len(owners):
        out[owners] = np.fmin(out[owners], np.minimum.reduceat(values, starts))


class _Cones:
    """Cone layout of the slack rows, SOC blocks grouped by size, plus W^2's pattern.

    ``soc_groups`` holds one (n_blocks, k) index array per SOC size, so each
    operation on the cone runs once per size group, not once per block.  The
    squared NT scaling W^2 has fixed nonzero positions (the NonNeg diagonal
    plus one dense k x k square per SOC block), stored once as
    ``w2_rows``/``w2_cols``; each iteration computes only their values.

    A layout may stack the slack rows of several programs (``stack``); each
    member's NonNeg rows, and its blocks within each size group, are then
    contiguous, and ``max_step`` returns one step per member.
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
        self.members = 1
        self.nonneg_seg = _segments([len(self.nonneg_idx)])
        self.soc_seg = [_segments([len(g)]) for g in self.soc_groups]
        self._place_w2()

    @classmethod
    def stack(cls, layouts: list[_Cones]) -> _Cones:
        """The layouts of several programs, one after the other."""
        out = cls.__new__(cls)
        offs = _offsets([c.n for c in layouts])
        out.n = int(offs[-1])
        out.members = len(layouts)
        out.nonneg_idx = _cat([c.nonneg_idx + o for c, o in zip(layouts, offs)])
        out.nonneg_seg = _segments([len(c.nonneg_idx) for c in layouts])
        out.soc_groups, out.soc_seg = [], []
        for k in sorted({g.shape[1] for c in layouts for g in c.soc_groups}):
            parts = [c.group(k) for c in layouts]
            out.soc_groups.append(np.concatenate([g + o for g, o in zip(parts, offs) if len(g)]))
            out.soc_seg.append(_segments([len(g) for g in parts]))
        out.degree = sum(c.degree for c in layouts)
        out._place_w2()
        return out

    def group(self, k: int) -> np.ndarray:
        """The (n_blocks, k) index array of the size-k SOC blocks (no rows if none)."""
        for g in self.soc_groups:
            if g.shape[1] == k:
                return g
        return np.empty((0, k), dtype=int)

    def _place_w2(self) -> None:
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

    def max_step(self, u: np.ndarray, du: np.ndarray) -> np.ndarray:
        """Per member, the largest a with u + a*du in the cone (inf if unbounded)."""
        alpha = np.full(self.members, math.inf)
        nn = self.nonneg_idx
        if len(nn):
            un, dn = u[nn], du[nn]
            neg = dn < 0
            ratio = np.full(len(nn), math.inf)
            ratio[neg] = -un[neg] / dn[neg]
            _segmin(ratio, self.nonneg_seg, alpha)
        for g, seg in zip(self.soc_groups, self.soc_seg):
            _segmin(_soc_step(u[g], du[g]), seg, alpha)
        return alpha


def _pattern_key(prog: ConicProgram) -> tuple:
    """Everything the KKT pattern of prog depends on: sizes, cones and stored entries."""
    return (
        prog.n_vars, prog.cones,
        prog.A.indptr.tobytes(), prog.A.indices.tobytes(),
        prog.G.indptr.tobytes(), prog.G.indices.tobytes(),
    )


def _kkt_pattern(A: sp.csr_matrix, G: sp.csr_matrix, cones: _Cones):
    """Ordering and permuted pattern of the KKT matrix of a program with rows A and G.

    Returns the ordering ``perm`` (original index at each new position), the
    diagonal signs in the new order, the CSC ``indices``/``indptr`` of the
    permuted matrix and ``slots``: the slot in its data vector of each entry
    of the weights (Q and delta diagonals, C', C, the -delta diagonal of the
    y block, the -W^2 entries and the -delta diagonal of the z block, in that
    order; C = [A; G] in stored order).
    """
    n, m, p = A.shape[1], A.shape[0], G.shape[0]
    size = n + m + p
    c_row = np.repeat(np.arange(m + p), np.diff(np.concatenate([A.indptr, G.indptr[1:] + A.nnz])))
    c_col = np.concatenate([A.indices[: A.nnz], G.indices[: G.nnz]])
    dx, dy, dz = np.arange(n), np.arange(n, n + m), np.arange(n + m, size)
    rows = np.concatenate([dx, dx, c_col, c_row + n, dy, cones.w2_rows + n + m, dz])
    cols = np.concatenate([dx, dx, c_row + n, c_col, dy, cones.w2_cols + n + m, dz])
    sign = np.concatenate([np.ones(n), -np.ones(m + p)])
    perm = _symmetric_ordering(rows, cols, sign)
    new = np.empty(size, dtype=int)
    new[perm] = np.arange(size)
    indices, indptr, slots = _pattern(new[cols], new[rows], size)
    return perm, sign[perm], indices, indptr, slots


def _residuals(prog, CT: sp.csr_matrix, x, y, s, z):
    """Dual residual Qx + c - A'y + G'z and primal residuals Ax - b, Gx + s - h.

    ``prog`` is a program or a stack of programs (anything with q, c, A, b,
    G and h), ``CT`` the transpose of its [A; G].
    """
    return (
        prog.q * x + prog.c - CT @ np.concatenate([y, -z]),
        prog.A @ x - prog.b,
        prog.G @ x + s - prog.h,
    )


class _Workspace:
    """What one program of a solve computes once and reuses.

    Holds the program, its cone layout, C' for C = [A; G] (so one product
    serves both row sets of the dual residual), the residual norms of its
    data, and the symbolic part of its KKT matrix over (x, y, z): a
    fill-reducing symmetric ordering ``perm``, the pattern of the matrix
    stored already permuted, and ``kkt_slots``, which sends each source
    entry (see ``_kkt_pattern``) to its slot there.  Programs of one solve
    that share a pattern share these arrays through ``patterns``, so the
    ordering is computed once per pattern.  ``certified`` records whether
    the last ``classify`` verdict passed a certificate test.  A workspace
    belongs to one solve; nothing is cached between solves.
    """

    def __init__(self, prog: ConicProgram, patterns: dict | None = None):
        self.prog = prog
        self.n, self.m, self.p = prog.n_vars, prog.n_eq, len(prog.h)
        self.cones = _Cones(prog.cones)
        A, G = prog.A, prog.G
        c_data = np.concatenate([A.data[: A.nnz], G.data[: G.nnz]])
        self.c_data = np.concatenate([c_data, c_data])
        C = sp.csr_matrix(
            (c_data, np.concatenate([A.indices[: A.nnz], G.indices[: G.nnz]]),
             np.concatenate([A.indptr, G.indptr[1:] + A.nnz])),
            shape=(self.m + self.p, self.n),
        )
        self.CT = C.T.tocsr()
        self.bnorm = 1.0 + _norm(prog.b, prog.h)
        self.cnorm = 1.0 + _norm(prog.c)
        patterns = {} if patterns is None else patterns
        key = _pattern_key(prog)
        if key not in patterns:
            patterns[key] = _kkt_pattern(A, G, self.cones)
        self.perm, self.sign, self.kkt_indices, self.kkt_indptr, self.kkt_slots = patterns[key]
        # kkt_slots split by the kind of weight, W^2's entries by cone part
        # (NonNeg as size 0, then each SOC size)
        w2_sizes = [0] + [g.shape[1] for g in self.cones.soc_groups]
        lengths = [self.n, self.n, len(self.c_data), self.m]
        lengths += [len(self.cones.nonneg_idx)]
        lengths += [g.size * g.shape[1] for g in self.cones.soc_groups]
        keys = ["q", "dx", "C", "dy"] + [("w2", k) for k in w2_sizes] + ["dz"]
        bounds = _offsets(lengths + [self.p])
        self.slot_kinds = {
            key: self.kkt_slots[a:b] for key, a, b in zip(keys, bounds[:-1], bounds[1:])
        }
        self.certified = False

    def residuals(self, x, y, s, z):
        return _residuals(self.prog, self.CT, x, y, s, z)

    def finish(self, status, x, y, s, z, iters) -> ConicSolution:
        x, y, s, z = x.copy(), y.copy(), s.copy(), z.copy()
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
        negative linear objective along the ray.  Either certificate sets
        ``certified``; the fallback for iterates that diverged with both
        certificates weak does not.
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
        self.certified = status != ITER_LIMIT
        if status == ITER_LIMIT and (ys > scale or xs > scale):
            # both certificates weak but iterates clearly diverged
            status = INFEASIBLE if ys >= xs else UNBOUNDED
        return self.finish(status, x, y, s, z, iters)


def _block_rows(mats: list[sp.csr_matrix], colmaps: list[np.ndarray], n_cols: int) -> sp.csr_matrix:
    """The rows of ``mats`` one after the other, local column j of mats[i] moved to colmaps[i][j].

    Entries keep their stored order, so each row's products sum as in its
    own matrix.
    """
    counts = _cat([np.diff(M.indptr) for M in mats])
    return sp.csr_matrix(
        (
            np.concatenate([M.data[: M.nnz] for M in mats]),
            _cat([cm[M.indices[: M.nnz]] for M, cm in zip(mats, colmaps)]),
            np.cumsum(np.concatenate([[0], counts])),
        ),
        shape=(len(counts), n_cols),
    )


class _Stack:
    """The live members of a lockstep solve as one block-diagonal system.

    Vectors hold the members one after the other within each kind: x is
    (x_1, ..., x_K), likewise y and z, and s is laid out as z.  The residual
    products use A, G and C' with each member's rows in their stored order,
    and the KKT matrix is block diagonal: member k's block is its own
    permuted matrix, so the factorization eliminates each block in that
    block's own ordering and every member's factor, solves and residuals
    come out exactly as they would for the member alone.  The weights of the
    KKT data are summed kind by kind (Q, delta, C', C, ...), which keeps
    each slot's summation order that of the member alone.  ``pivoting``
    selects SuperLU's partial pivoting over static diagonal pivots; it is
    only used for single members, since its column ordering spans the whole
    matrix.
    """

    def __init__(self, members: list[_Workspace], pivoting: bool = False):
        self.members = members
        self.pivoting = pivoting
        ns, ms, ps = ([getattr(ws, a) for ws in members] for a in "nmp")
        # entries per member of x, y, s and z, and of per-member values
        self.lengths = {"x": ns, "y": ms, "z": ps, "k": [1] * len(members)}
        offs = {kind: _offsets(ls) for kind, ls in self.lengths.items()}
        self.slices = {
            kind: [slice(a, b) for a, b in zip(o[:-1].tolist(), o[1:].tolist())]
            for kind, o in offs.items()
        }
        self.segments = {kind: _segments(ls) for kind, ls in self.lengths.items()}
        n, m, p = self.n, self.m, self.p = [int(offs[kind][-1]) for kind in "xyz"]
        self.cones = _Cones.stack([ws.cones for ws in members])
        progs = [ws.prog for ws in members]
        self.q, self.c, self.b, self.h = (
            np.concatenate([getattr(pr, a) for pr in progs]) for a in ("q", "c", "b", "h")
        )
        self.bnorm = np.array([ws.bnorm for ws in members])
        self.cnorm = np.array([ws.cnorm for ws in members])
        # barrier degrees, floored at 1 so mu stays defined without cone rows
        self.nu = np.array([max(ws.cones.degree, 1) for ws in members])

        xmaps = [np.arange(ws.n) + o for ws, o in zip(members, offs["x"])]
        self.A = _block_rows([pr.A for pr in progs], xmaps, n)
        self.G = _block_rows([pr.G for pr in progs], xmaps, n)
        self.CT = _block_rows(
            [ws.CT for ws in members],
            [
                np.concatenate([np.arange(ws.m) + oy, np.arange(ws.p) + m + oz])
                for ws, oy, oz in zip(members, offs["y"], offs["z"])
            ],
            m + p,
        )

        # the block-diagonal KKT matrix and the slots of the weights by kind
        self.sizes = [a + b + c for a, b, c in zip(ns, ms, ps)]
        k_off = _offsets(self.sizes)
        nnz_off = _offsets([len(ws.kkt_indices) for ws in members])
        self.K = sp.csc_matrix(
            (
                np.zeros(int(nnz_off[-1])),
                _cat([ws.kkt_indices + o for ws, o in zip(members, k_off)]),
                np.concatenate([ws.kkt_indptr[:-1] + o for ws, o in zip(members, nnz_off)]
                               + [nnz_off[-1:]]),
            ),
            shape=(int(k_off[-1]),) * 2,
        )
        self.sign = _cat([ws.sign for ws in members])
        self.c_data = _cat([ws.c_data for ws in members])
        # global position in (x, y, z) of each row of the permuted matrix
        self.perm = _cat([
            np.where(ws.perm < ws.n, ws.perm + ox,
                     np.where(ws.perm < ws.n + ws.m, ws.perm - ws.n + n + oy,
                              ws.perm - ws.n - ws.m + n + m + oz))
            for ws, ox, oy, oz in zip(members, offs["x"], offs["y"], offs["z"])
        ])
        # the weights' slots, kind by kind (see _Workspace.slot_kinds)
        kinds = ["q", "dx", "C", "dy", ("w2", 0)]
        kinds += [("w2", g.shape[1]) for g in self.cones.soc_groups] + ["dz"]
        self.slots = _cat([
            ws.slot_kinds[kind] + o
            for kind in kinds for ws, o in zip(members, nnz_off) if kind in ws.slot_kinds
        ])
        self.lu = None
        self.delta = None

    def spread(self, values, kind: str) -> np.ndarray:
        """Per-member values repeated over each member's entries of the given kind."""
        return np.repeat(values, self.lengths[kind])

    def norms(self, v: np.ndarray, kind: str) -> np.ndarray:
        """Per member, the largest absolute entry of its part of v (0 when empty)."""
        out = np.zeros(len(self.members))
        starts, owners = self.segments[kind]
        if len(owners):
            out[owners] = np.maximum.reduceat(np.abs(v), starts)
        return out

    def dots(self, u: np.ndarray, v: np.ndarray, kind: str) -> list[float]:
        """Per member, the inner product of its parts of u and v."""
        return [float(u[sl] @ v[sl]) for sl in self.slices[kind]]

    def part(self, k: int, x, y, s, z):
        """Member k's parts of (x, y, s, z)."""
        sx, sy, sz = self.slices["x"][k], self.slices["y"][k], self.slices["z"][k]
        return x[sx], y[sy], s[sz], z[sz]

    def gather(self, keep: list[int], *vectors) -> list[np.ndarray]:
        """The parts of the members at positions ``keep`` of each (vector, kind)."""
        return [np.concatenate([v[self.slices[kind][k]] for k in keep]) for v, kind in vectors]

    def residuals(self, x, y, s, z):
        return _residuals(self, self.CT, x, y, s, z)

    def kkt(self, w2: np.ndarray, deltas: np.ndarray) -> sp.csc_matrix:
        """Refill K, the block-diagonal permuted KKT matrix, for W^2's entries
        w2 and each member's regularization deltas[k]."""
        dx, dy, dz = (self.spread(deltas, kind) for kind in "xyz")
        weights = np.concatenate([self.q, dx, self.c_data, -dy, -w2, -dz])
        self.K.data[:] = np.bincount(self.slots, weights=weights, minlength=len(self.K.data))
        return self.K

    def factor(self, w2: np.ndarray, deltas: np.ndarray) -> bool:
        """Factor the KKT matrix for W^2's entries w2; False if SuperLU fails."""
        K = self.kkt(w2, deltas)
        self.lu = None  # free the previous factor before making the next
        try:
            self.lu = (
                spla.splu(K) if self.pivoting
                else spla.splu(K, permc_spec="NATURAL", **_DIAGONAL_PIVOTS)
            )
        except (RuntimeError, ValueError):
            return False
        self.delta = np.repeat(deltas, self.sizes)
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


def _delta_alone(ws: _Workspace, s: np.ndarray, z: np.ndarray, pivoting: bool) -> float | None:
    """The regularization at which ws's KKT matrix factors on its own at (s, z), if any."""
    alone = _Stack([ws], pivoting)
    w_nn, soc_w, _ = ws.cones.compute_scaling(s, z)
    w2 = ws.cones.w2_values(w_nn, soc_w)
    for delta in (1e-9, 1e-6):
        if alone.factor(w2, np.array([delta])):
            return delta
    return None


def solve_socp(prog: ConicProgram, tol: float = 1e-8, max_iter: int = 200) -> ConicSolution:
    """Solve a standard-form cone program to the requested tolerance.

    Returns a point whose primal, dual and complementarity-gap residuals are
    all below ``tol``, or a non-optimal status (never raises on singular or
    diverging systems).  This is ``solve_socp_batch`` on one program.
    """
    return solve_socp_batch([prog], tol, max_iter)[0]


def solve_socp_batch(
    progs: list[ConicProgram], tol: float = 1e-8, max_iter: int = 200
) -> list[ConicSolution]:
    """Solve independent cone programs in lockstep, one solution per program.

    Each program's solution is bit for bit the one ``solve_socp`` returns for
    it alone, whatever else is in the batch and in whatever order.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not progs:
        return []
    patterns: dict = {}
    members = [_Workspace(prog, patterns) for prog in progs]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sols = _ipm_loop(members, tol, max_iter)
        for i, (ws, sol) in enumerate(zip(members, sols)):
            if sol.status != OPTIMAL and not ws.certified:
                # a static pivot can shrink toward zero on nearly singular
                # systems; rerun the program alone under partial pivoting
                (again,) = _ipm_loop([ws], tol, max_iter, pivoting=True)
                again.iterations += sol.iterations
                sols[i] = again
    return sols


def _ipm_loop(members, tol: float, max_iter: int, pivoting: bool = False):
    """Mehrotra predictor-corrector on the programs of ``members`` in lockstep.

    Every round takes one iteration of each live member.  Members share the
    factorization of the block-diagonal KKT matrix and the vectorized cone
    algebra; step lengths, centering, the stop and divergence tests, the
    best iterate and the iteration count stay each member's own.  A member
    that finishes leaves the stack.  Returns one solution per member; a
    single workspace is a batch of one and gets its solution back unwrapped.
    """
    if isinstance(members, _Workspace):
        return _ipm_loop([members], tol, max_iter, pivoting)[0]
    done: list[ConicSolution | None] = [None] * len(members)
    best: list[tuple | None] = [None] * len(members)
    live = list(range(len(members)))  # the member at each position of the stack
    st = _Stack(members, pivoting)

    # interior starting point for (s, z); x and y start at zero
    e = st.cones.identity()
    x = np.zeros(st.n)
    y = np.zeros(st.m)
    s = e * st.spread(np.maximum(1.0, np.sqrt(st.bnorm)), "z")
    z = e * st.spread(np.maximum(1.0, np.sqrt(st.cnorm)), "z")

    def drop(ended: list[int], *vectors):
        """Take the members at stack positions ``ended`` out of the stack;
        returns the other members' parts of each (vector, kind)."""
        nonlocal st, live, e
        keep = [k for k in range(len(live)) if k not in ended]
        live = [live[k] for k in keep]
        if not live:
            return [None] * len(vectors)
        e, *parts = st.gather(keep, (e, "z"), *vectors)
        kept = [st.members[k] for k in keep]
        st = None  # free the old stack and its factor before building the new one
        st = _Stack(kept, pivoting)
        return parts

    for it in range(1, max_iter + 1):
        r_d, r_p, r_g = st.residuals(x, y, s, z)
        gap = st.dots(s, z, "z")
        mu = np.array(gap) / st.nu
        rel_p = np.maximum(st.norms(r_p, "y"), st.norms(r_g, "z")) / st.bnorm
        rel_d = st.norms(r_d, "x") / st.cnorm
        big_p = np.maximum(st.norms(x, "x"), st.norms(s, "z")) > 1e8
        big_d = st.norms(y, "y") + st.norms(z, "z") > 1e8
        ended = []
        for k, i in enumerate(live):
            ws = members[i]
            part = st.part(k, x, y, s, z)
            rel_g = abs(gap[k]) / (1.0 + abs(ws.prog.objective(part[0])))
            if rel_p[k] <= tol and rel_d[k] <= tol and rel_g <= tol:
                done[i] = ws.finish(OPTIMAL, *part, it)
                ended.append(k)
                continue
            score = rel_p[k] + rel_d[k] + rel_g
            if best[i] is None or score < best[i][0]:
                best[i] = (score, *(v.copy() for v in part))
            if big_p[k] or big_d[k]:
                verdict = ws.classify(*part, it)
                if verdict.status != ITER_LIMIT:
                    done[i] = verdict
                    ended.append(k)
        state = [x, y, s, z, r_d, r_p, r_g, mu]
        while True:
            if ended:
                state = drop(ended, *zip(state, "xyzzxyzk"))
                if not live:
                    return done
            x, y, s, z, r_d, r_p, r_g, mu = state
            singular, stalled = _newton_step(st, x, y, s, z, (r_d, r_p, r_g), mu, e)
            if not singular:
                break
            # a member whose KKT block factors at neither regularization ends here
            for k in singular:
                done[live[k]] = st.members[k].classify(*st.part(k, x, y, s, z), it)
            ended = singular
        for k in stalled:
            done[live[k]] = st.members[k].classify(*st.part(k, x, y, s, z), it, scale=1e5)
        if stalled:
            x, y, s, z = drop(stalled, (x, "x"), (y, "y"), (s, "z"), (z, "z"))
            if not live:
                return done

    # iteration cap: report the best iterate seen
    for k, i in enumerate(live):
        part = best[i][1:] if best[i] is not None else st.part(k, x, y, s, z)
        done[i] = members[i].finish(ITER_LIMIT, *part, max_iter)
    return done


def _newton_step(st: _Stack, x, y, s, z, r, mu: np.ndarray, e: np.ndarray):
    """One predictor-corrector step of every member of the stack, in place.

    Returns the stack positions of the members whose KKT block factors at
    neither regularization (then nothing has changed) and of those whose
    step length collapsed (those are left where they were).  Everything
    the step allocates, the factorization included, is freed on return,
    before the next round allocates again: SuperLU reserves about thirty
    times the stored entries of the matrix, and space handed back early is
    reused rather than left behind as fragments.
    """
    r_d, r_p, r_g = r
    w_nn, soc_w, lam, deltas = _scale_and_factor(st, s, z)
    failed = [k for k, d in enumerate(deltas) if d is None]
    if failed:
        return failed, []
    cones = st.cones
    lam_lam = cones.jprod_all(lam, lam)
    mu, nu = mu.tolist(), st.nu.tolist()

    def direction(d_target):
        # linearized complementarity lam o (W^-1 ds + W dz) = d_target
        # gives ds = W g - W^2 dz with g = lam \ d_target
        g = cones.jdiv_all(lam, d_target)
        wg = cones.apply_w(w_nn, soc_w, g, inverse=False)
        dx, dyt, dz = st.solve(-r_d, -r_p, -r_g - wg)
        ds = cones.apply_w(
            w_nn, soc_w, g - cones.apply_w(w_nn, soc_w, dz, inverse=False), inverse=False
        )
        return dx, -dyt, ds, dz

    # predictor
    dx_a, dy_a, ds_a, dz_a = direction(-lam_lam)
    steps = zip(cones.max_step(s, ds_a).tolist(), cones.max_step(z, dz_a).tolist())
    a_aff = st.spread([min(1.0, a_s, a_z) for a_s, a_z in steps], "z")
    aff_gap = st.dots(s + a_aff * ds_a, z + a_aff * dz_a, "z")
    sigma = [
        min(1.0, max(0.0, (g / nu_k / mu_k) ** 3)) if mu_k > 0 else 0.0
        for g, nu_k, mu_k in zip(aff_gap, nu, mu)
    ]

    # corrector
    wds = cones.apply_w(w_nn, soc_w, ds_a, inverse=True)
    wdz = cones.apply_w(w_nn, soc_w, dz_a, inverse=False)
    sigma_mu = st.spread([sg * mu_k for sg, mu_k in zip(sigma, mu)], "z")
    dx, dy, ds, dz = direction(sigma_mu * e - lam_lam - cones.jprod_all(wds, wdz))
    st.lu = None

    steps = zip(cones.max_step(s, ds).tolist(), cones.max_step(z, dz).tolist())
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
    return [], stalled


def _scale_and_factor(st: _Stack, s: np.ndarray, z: np.ndarray):
    """NT scaling at (s, z) and the factored KKT matrix of the stack.

    Each member's block is regularized by 1e-9, or by 1e-6 where its block
    does not factor at 1e-9, exactly as the member alone would settle it.
    Returns the scaling and each member's regularization, None for a member
    whose block factors at neither; the stack is then left unfactored.
    """
    w_nn, soc_w, lam = st.cones.compute_scaling(s, z)
    w2 = st.cones.w2_values(w_nn, soc_w)
    deltas = [1e-9] * len(st.members)
    if not st.factor(w2, np.array(deltas)):
        deltas = [
            _delta_alone(ws, s[sl], z[sl], st.pivoting)
            for ws, sl in zip(st.members, st.slices["z"])
        ]
        if None not in deltas and not st.factor(w2, np.array(deltas)):
            raise RuntimeError("the stacked KKT matrix failed to factor where its blocks did")
    return w_nn, soc_w, lam, deltas


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
    shifted = []
    for sign in (+1.0, -1.0):
        b2 = prog.b.copy()
        b2[eq_index] += sign * delta
        shifted.append(replace(prog, b=b2))
    up, down = solve_socp_batch(shifted, tol=tol)
    if up.status != OPTIMAL or down.status != OPTIMAL:
        return ProbeResult(float("nan"), float(sol.y[eq_index]), False)
    est = (up.obj - down.obj) / (2.0 * delta)
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
