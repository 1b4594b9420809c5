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

What a solve derives from a program's sparsity pattern alone (``_Pattern``:
the cone layout, the index arrays of C = [A; G], the KKT ordering and its
slots) is built once per distinct pattern among the solve's programs and
shared by all of them, and kept across solves by a caller that passes the
same ``patterns`` dict to each; a program of the solve is its
(program, pattern) pair, and its data is read where it is stacked
(``_Stack``).  The cone layout groups the second-order blocks by
size into (n_blocks, k) index arrays, so the Jordan algebra and the NT
scaling run as one numpy call per size group rather than a Python loop
over blocks.

The regularized KKT matrix

    [[Q + delta I, A',        G'           ],
     [A,           -delta I,  0            ],
     [G,           0,         -W^2 - delta I]]

is symmetric quasi-definite, so it can be factored under any symmetric
ordering without pivoting (Vanderbei, SIAM J. Optim. 1995); ECOS pairs this
with static regularization and iterative refinement (Domahidi, Chu and Boyd,
ECC 2013).  Its pattern does not change between iterations.  A program's
pattern part therefore holds one minimum-degree ordering, the matrix's
pattern already permuted and a map from each source entry to its slot, so
each iteration only refills the data and factors it with diagonal pivots;
programs that share a sparsity pattern (the hours of a network pass,
prosumers with the same devices) share one ordering.  Solves and one
refinement step against the unregularized matrix stay in the permuted
coordinates; outside the KKT matrix W is applied through the NT scaling
rather than as a matrix.

``solve_socp_batch`` runs independent programs in lockstep rounds, one
Mehrotra iteration of every live program per round (``_ipm_loop``).  The
round stacks the programs' vectors and cone layouts, so the cone algebra,
the residual products and the KKT refill run once per round, and factors
the block-diagonal KKT matrix once: each block in its own program's
ordering, so no elimination crosses blocks.

A round (``_newton_step``) does its cone work once, in this order.  It
computes the NT scaling (``_Scaling``): s and z gathered into blocks, per
second-order block the closed form's beta, w and v from det s and det z,
and lambda with its determinant, which every later product with W, W^-1,
W^2 or lambda reads instead of recomputing.  It refills the KKT data by
adding the round's delta and -W^2 onto the constant weights (Q, C' and
C), which the stack summed once.
The predictor and the corrector then each solve once and search one step
over s and z together; the corrector reuses the predictor's W dz, and the
round's intermediates stay blocks, written out as vectors on the slack
rows only for the linear solve, the gap and the step.  Every entry is
computed by the same operations as with none of this sharing, so the
round's result does not depend on it.  On a NonNeg-only layout (every
prosumer program's) the blocks are the vectors themselves, with nothing
gathered or scattered.

The round's checks run over the whole stack too.  Each program's
objective, gap s'z and affine gap are segment sums over the stacked
vectors (``_Stack.sums``), each segment summed in an order that depends
on that program's entries alone; the stop, divergence and cap tests are
then vector operations, and only a program that ends is looked at on its
own.  A stack's index arrays are built once per run of consecutive
programs on one pattern, each by one numpy call that shifts the pattern's
array for all of the run's programs, in scipy's index dtype; its data is
gathered once per run, so a stack of the programs left after some finish
costs a number of numpy calls that grows with its runs, not its programs.

Step lengths, centering, the stop and divergence tests, the status and
the iteration count stay each program's own, and a program that finishes
leaves the stack.  No arithmetic mixes two programs, so a program's answer
is bit for bit the same alone or in any batch, in any order;
``solve_socp`` is the batch of one.

A program's status carries its proof: OPTIMAL is backed by its residuals,
INFEASIBLE and UNBOUNDED only by a certificate (``_classify``), and any
other ending, diverged iterates included, is ITER_LIMIT, as ECOS reports
infeasibility only with a certificate.  A program ends in one of two
places.  At the top of a round, where the residuals are evaluated, it ends
converged, diverged (certified or ITER_LIMIT) or at its iteration cap
(ITER_LIMIT).  After a failed Newton step, when its KKT block factors at
neither regularization or its step length collapsed, it ends ITER_LIMIT,
at the round's point, which the step left as it was.  Either way the
ending reports the point and the residuals of the round it ends in.  A
program whose run ends ITER_LIMIT, warm or cold, has one rescue: it runs
once more, on its own, from the cold point, with SuperLU's partial
pivoting and the -W^2 block left without delta.  Diagonal pivots can
shrink toward zero on nearly singular programs and stall the iteration.
And where a slack row's s has gone to zero ahead of its primal residual,
its W^2 falls far below delta; the Newton step then leaves that residual
standing as delta dz instead of closing it, and the refinement step
removes only the share W^2 / (W^2 + delta) of what is left.  Partial
pivoting needs no delta on those rows, since -W^2 is negative definite.
Whichever run ends a program, an optimal answer is only returned when
residuals computed from the program itself, not from the factorization,
meet the tolerance.

A program may be given a start: the (x, y, z) of a solution with its
columns, rows and cones, typically of a similar program solved just before
(a relaxation whose binaries are now pinned, the same scheduling problem at
new prices, or a network hour at a new loss consensus).  Its first iterate
is the start's x and y as they are, s fitted to the program's own rows at
that x (h - Gx projected onto the cone), and s and z each plus
``_WARM_SHIFT`` times the cone identity e, which moves them strictly inside
the cone and leaves a start that is already the answer within 1e-5 of it
(the shifted warm start of Gondzio and Grothey, SIAM J. Optim. 2002).  The
solver fits s itself because a start's x often comes from another program:
a pinned re-solve's from the relaxation, whose rows had other right-hand
sides.  Everything after the first iterate is unchanged but the iteration
cap: a warm program stops at its 50th iteration (``_WARM_MAX_ITER``) rather
than its 200th (``_MAX_ITER``).  A warm program that ends ITER_LIMIT, at
that cap or earlier, takes the rescue above, which starts from the cold
point, so a bad start costs at most 50 iterations on top of the rescue.
The start enters only the program's own first iterate, so its answer is
bit for bit the same alone or in any batch given the same start.

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
from dataclasses import dataclass, field

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
    "Start",
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
    """A program's ending: its status, point, objective, the residual norms
    at the point and the iterations taken.  An optimal status is backed by
    the residuals, an infeasible or unbounded one by its certificate; an
    ending the solver could not settle is ITER_LIMIT."""

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    obj: float
    residuals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0


# a warm start: the (x, y, z) of a solution, x mapped to the program's columns
Start = tuple[np.ndarray, np.ndarray, np.ndarray]


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
# e = (1, 0), product u o v = (u'v, u0*vb + v0*ub), determinant
# det(u) = u0^2 - ||ub||^2 and reflection J u = (u0, -ub).  The NT scaling
# of a block at (s, z) has a closed form (Vandenberghe, "The CVXOPT linear
# and quadratic cone program solvers", 2010, section 6): with s and z
# normalized to determinant 1, s' = s / sqrt(det s) and z' = z / sqrt(det z),
#
#     w = (s' + J z') / sqrt(2 (1 + s'z')),   v = (w + e) / sqrt(2 (w0 + 1)),
#     beta = (det s / det z)^(1/4),
#
# W = beta (2 v v' - J) is the symmetric W with W^2 z = s, W^-1 =
# (2 J v v' J - J) / beta, W^2 = beta^2 (2 w w' - J), and lambda = W z has
# det(lambda) = sqrt(det s * det z).
#
# Every helper takes (n_blocks, k) arrays holding one cone block of size k
# per row, and works row by row.
# ---------------------------------------------------------------------------


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _jdet(u: np.ndarray) -> np.ndarray:
    return u[:, 0] * u[:, 0] - _rowdot(u[:, 1:], u[:, 1:])


def _reflect(u: np.ndarray) -> np.ndarray:
    """J u = (u0, -ub)."""
    out = -u
    out[:, 0] = u[:, 0]
    return out


def _nt_product(beta: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """beta (2 v v'u - J u): W u, or W^-1 u given 1 / beta and J v."""
    return beta[:, None] * (2.0 * _rowdot(v, u)[:, None] * v - _reflect(u))


def _jprod(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = u[:, :1] * v + v[:, :1] * u
    out[:, 0] = _rowdot(u, v)
    return out


def _jdiv(lam: np.ndarray, d: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """Solve lam o u = d for u."""
    out = np.empty_like(d)
    det = _jdet(lam) if det is None else det
    out[:, 0] = (lam[:, 0] * d[:, 0] - _rowdot(lam[:, 1:], d[:, 1:])) / det
    out[:, 1:] = (d[:, 1:] - out[:, :1] * lam[:, 1:]) / lam[:, :1]
    return out


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


def _offsets(lengths, dtype=int) -> np.ndarray:
    """Start of each of the consecutive parts of the given lengths, then the total."""
    out = np.zeros(len(lengths) + 1, dtype=dtype)
    np.cumsum(lengths, out=out[1:])
    return out


def _shifted(base: np.ndarray, shifts: np.ndarray, part: np.ndarray | None = None) -> np.ndarray:
    """One copy of ``base`` per row of ``shifts``, one after the other, flattened.

    Entry j of copy i is base[j] + shifts[i], or base[j] + shifts[i, part[j]]
    when ``part`` says which column of the 2-D ``shifts`` applies to it.
    """
    if part is None:
        return (base + shifts.reshape((-1,) + (1,) * base.ndim)).ravel()
    return (base + shifts[:, part]).ravel()


def _segments(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Where the nonempty ones among consecutive parts of the given lengths
    start, and their positions among the parts."""
    lengths = np.asarray(lengths, dtype=int)
    nonempty = np.flatnonzero(lengths)
    return (np.cumsum(lengths) - lengths)[nonempty], nonempty


def _paired(segments, total: int) -> tuple[np.ndarray, np.ndarray]:
    """``_segments`` over two halves of ``total`` entries each, cut alike."""
    starts, owners = segments
    return np.concatenate([starts, starts + total]), owners


def _segmin(values: np.ndarray, segments, out: np.ndarray) -> None:
    """Lower out[i] to the least of values over the segments of owner i in
    both halves (see ``_paired``), ignoring segments that hold a NaN."""
    starts, owners = segments
    if len(owners):
        low = np.minimum.reduceat(values, starts).reshape(2, -1)
        out[owners] = np.fmin(out[owners], np.fmin(low[0], low[1]))


class _Cones:
    """Cone layout of the slack rows, SOC blocks grouped by size, plus W^2's pattern.

    ``soc_groups`` holds one (n_blocks, k) index array per SOC size, so each
    operation on the cone runs once per size group, not once per block.  The
    squared NT scaling W^2 has fixed nonzero positions (the NonNeg diagonal
    plus one dense k x k square per SOC block), stored once as
    ``w2_rows``/``w2_cols``; each iteration computes only their values.

    Vectors on the slack rows are worked on as blocks (``blocks``): the
    NonNeg entries, then one (n_blocks, k) array per SOC size group.

    A layout may stack the slack rows of several programs (``stack``); each
    member's NonNeg rows, and its blocks within each size group, are then
    contiguous, and ``max_step`` returns one step per member.  A stacked
    layout has no W^2 positions of its own: a stacked KKT matrix places
    W^2's entries through each member's pattern.
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
        self.nonneg_seg = _paired(_segments([len(self.nonneg_idx)]), len(self.nonneg_idx))
        self.soc_seg = [_paired(_segments([len(g)]), len(g)) for g in self.soc_groups]
        self._place_w2()

    @classmethod
    def stack(cls, runs: list[tuple[_Cones, np.ndarray]]) -> _Cones:
        """The layouts of several programs, one after the other.

        ``runs`` holds (layout, starts) pairs: the layout of consecutive
        programs that share it and the first stacked row of each of them.
        """
        out = cls.__new__(cls)
        counts = [len(starts) for _, starts in runs]
        out.n = sum(c.n * k for (c, _), k in zip(runs, counts))
        out.members = sum(counts)
        out.nonneg_idx = _cat([_shifted(c.nonneg_idx, starts) for c, starts in runs])
        out.nonneg_seg = _paired(
            _segments(np.repeat([len(c.nonneg_idx) for c, _ in runs], counts)), len(out.nonneg_idx)
        )
        out.soc_groups, out.soc_seg = [], []
        for k in sorted({g.shape[1] for c, _ in runs for g in c.soc_groups}):
            parts = [(c.group(k), starts) for c, starts in runs]
            group = np.concatenate(
                [_shifted(g, starts).reshape(-1, k) for g, starts in parts if len(g)]
            )
            out.soc_groups.append(group)
            out.soc_seg.append(
                _paired(_segments(np.repeat([len(g) for g, _ in parts], counts)), len(group))
            )
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

    def project(self, u: np.ndarray) -> np.ndarray:
        """The point of the cone nearest to u."""
        out = u.copy()
        out[self.nonneg_idx] = np.maximum(u[self.nonneg_idx], 0.0)
        for g in self.soc_groups:
            blk = u[g]
            tail = np.sqrt(_rowdot(blk[:, 1:], blk[:, 1:]))
            # outside both the cone and its polar: onto the cone's boundary
            cut = (tail > np.abs(blk[:, 0]))[:, None]
            half = (blk[:, 0] + tail) / 2.0
            edge = blk * (half / np.where(tail > 0.0, tail, 1.0))[:, None]
            edge[:, 0] = half
            out[g] = np.where(cut, edge, np.where(tail[:, None] <= -blk[:, :1], 0.0, blk))
        return out

    def blocks(self, u: np.ndarray) -> list[np.ndarray]:
        """u's entries as blocks: the NonNeg entries, then each SOC size group's.

        On a NonNeg-only layout (every prosumer program's) the NonNeg
        entries are all of u in order, so the one block is u itself.
        """
        if not self.soc_groups:
            return [u]
        return [u[self.nonneg_idx]] + [u[g] for g in self.soc_groups]

    def flat(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The vector whose blocks (see ``blocks``) are the given ones."""
        if not self.soc_groups:
            return blocks[0]
        out = np.empty(self.n)
        out[self.nonneg_idx] = blocks[0]
        for g, b in zip(self.soc_groups, blocks[1:]):
            out[g] = b
        return out

    def max_step(self, u, du, v, dv) -> np.ndarray:
        """Per member, the largest a with u + a*du and v + a*dv both in the
        cone (inf if unbounded), all four given as blocks.

        One pass searches both pairs, each block of u next to its block of
        v; a member's segments of u and of v keep their own minima, so a
        NaN in one of them is ignored as it would be in a search of that
        pair alone.
        """
        alpha = np.full(self.members, math.inf)
        if len(u[0]):
            un, dn = np.concatenate([u[0], v[0]]), np.concatenate([du[0], dv[0]])
            neg = dn < 0
            ratio = np.full(len(un), math.inf)
            ratio[neg] = -un[neg] / dn[neg]
            _segmin(ratio, self.nonneg_seg, alpha)
        for seg, ub, dub, vb, dvb in zip(self.soc_seg, u[1:], du[1:], v[1:], dv[1:]):
            _segmin(_soc_step(np.concatenate([ub, vb]), np.concatenate([dub, dvb])), seg, alpha)
        return alpha


class _Scaling:
    """The NT scaling of a layout at (s, z), with what each product with it reuses.

    Everything is held as blocks (see ``_Cones.blocks``): s and z, the
    NonNeg weights sqrt(s / z), per SOC size group the closed form's beta,
    w and v (see the comment above ``_rowdot``), and lambda = W^-1 s = W z
    with its determinants.  A round of the interior point computes it once,
    and every product with W, W^-1, W^2 or lambda in the round reads it.
    """

    def __init__(self, cones: _Cones, s: np.ndarray, z: np.ndarray):
        self.s, self.z = cones.blocks(s), cones.blocks(z)
        s_nn, z_nn = self.s[0], self.z[0]
        self.w_nn = np.sqrt(s_nn / z_nn)
        self.lam = [np.sqrt(s_nn * z_nn)]
        self.soc = []  # per group (beta, w, v)
        self.det_lam = []
        for sb, zb in zip(self.s[1:], self.z[1:]):
            rs, rz = np.sqrt(_jdet(sb)), np.sqrt(_jdet(zb))
            sn, zn = sb / rs[:, None], zb / rz[:, None]
            w = (sn + _reflect(zn)) / np.sqrt(2.0 * (1.0 + _rowdot(sn, zn)))[:, None]
            v = w.copy()
            v[:, 0] += 1.0
            v /= np.sqrt(2.0 * (w[:, 0] + 1.0))[:, None]
            beta = np.sqrt(rs / rz)
            self.soc.append((beta, w, v))
            self.lam.append(_nt_product(beta, v, zb))
            self.det_lam.append(rs * rz)

    def w2_values(self) -> np.ndarray:
        """Entries of W^2 at the layout's (w2_rows, w2_cols): s/z on NonNeg,
        beta^2 (2 w w' - J) on SOC."""
        out = [self.w_nn * self.w_nn]
        for beta, w, _ in self.soc:
            m = 2.0 * (w[:, :, None] * w[:, None, :])
            m[:, 0, 0] -= 1.0
            m[:, 1:, 1:] += np.eye(w.shape[1] - 1)
            out.append(((beta * beta)[:, None, None] * m).ravel())
        return np.concatenate(out)

    def apply(self, u: list[np.ndarray], inverse: bool = False) -> list[np.ndarray]:
        """W (inverse=False) or W^-1 (inverse=True) applied to the blocks u."""
        out = [u[0] / self.w_nn if inverse else u[0] * self.w_nn]
        for (beta, _, v), ub in zip(self.soc, u[1:]):
            out.append(
                _nt_product(1.0 / beta, _reflect(v), ub) if inverse else _nt_product(beta, v, ub)
            )
        return out

    def lam_div(self, d: list[np.ndarray]) -> list[np.ndarray]:
        """The blocks u with lambda o u = d."""
        out = [d[0] / self.lam[0]]
        for lam, det, db in zip(self.lam[1:], self.det_lam, d[1:]):
            out.append(_jdiv(lam, db, det))
        return out


def _jprods(u: list[np.ndarray], v: list[np.ndarray]) -> list[np.ndarray]:
    """The Jordan product u o v of two vectors given as blocks."""
    return [u[0] * v[0]] + [_jprod(ub, vb) for ub, vb in zip(u[1:], v[1:])]


def _pattern_key(prog: ConicProgram) -> tuple:
    """Everything the KKT pattern of prog depends on: sizes, cones and stored entries."""
    return (
        prog.n_vars, prog.cones,
        prog.A.indptr.tobytes(), prog.A.indices.tobytes(),
        prog.G.indptr.tobytes(), prog.G.indices.tobytes(),
    )


def _kkt_pattern(n: int, m: int, c_row: np.ndarray, c_col: np.ndarray, cones: _Cones):
    """Ordering and permuted pattern of the KKT matrix of a program with n
    columns, m equality rows, C = [A; G] stored entries at (c_row, c_col) and
    cone layout ``cones``.

    Returns the ordering ``perm`` (original index at each new position), the
    diagonal signs in the new order, the CSC ``indices``/``indptr`` of the
    permuted matrix and ``slots``: the slot in its data vector of each entry
    of the weights (Q and delta diagonals, C', C, the -delta diagonal of the
    y block, the -W^2 entries and the -delta diagonal of the z block, in that
    order; C = [A; G] in stored order).
    """
    size = n + m + cones.n
    dx, dy, dz = np.arange(n), np.arange(n, n + m), np.arange(n + m, size)
    rows = np.concatenate([dx, dx, c_col, c_row + n, dy, cones.w2_rows + n + m, dz])
    cols = np.concatenate([dx, dx, c_row + n, c_col, dy, cones.w2_cols + n + m, dz])
    sign = np.concatenate([np.ones(n), -np.ones(size - n)])
    perm = _symmetric_ordering(rows, cols, sign)
    new = np.empty(size, dtype=int)
    new[perm] = np.arange(size)
    indices, indptr, slots = _pattern(new[cols], new[rows], size)
    return perm, sign[perm], indices, indptr, slots


class _Pattern:
    """What the programs of a solve that share a sparsity pattern compute once.

    Holds the sizes (``n`` columns, ``m`` equality rows, ``p`` cone rows),
    the cone layout, the index arrays of A and G, and the symbolic part of
    the KKT matrix over (x, y, z): a fill-reducing symmetric ordering
    ``perm``, the diagonal signs in that order, the pattern of the matrix
    stored already permuted, and ``slot_kinds``, the slot there of each
    source entry (see ``_kkt_pattern``) split by the kind of weight.
    ``perm_part`` says which of x, y and z (0, 1, 2) each entry of ``perm``
    falls in, which is what ``_Stack`` needs to shift it into a stack.
    Nothing here depends on the programs' values.
    """

    def __init__(self, prog: ConicProgram):
        A, G = prog.A, prog.G
        n, m, p = self.n, self.m, self.p = prog.n_vars, prog.n_eq, len(prog.h)
        self.cones = _Cones(prog.cones)
        self.a_cols, self.g_cols = A.indices[: A.nnz], G.indices[: G.nnz]
        self.a_counts, self.g_counts = np.diff(A.indptr), np.diff(G.indptr)
        # C's stored entries, A's then G's, by row and column
        c_counts = np.concatenate([self.a_counts, self.g_counts])
        c_row = np.repeat(np.arange(m + p), c_counts)
        c_col = np.concatenate([self.a_cols, self.g_cols])
        self.perm, self.sign, self.kkt_indices, self.kkt_indptr, slots = _kkt_pattern(
            n, m, c_row, c_col, self.cones
        )
        self.perm_part = np.searchsorted([n, n + m], self.perm, side="right")
        # slots split by the kind of weight, W^2's entries by cone part
        # (NonNeg as size 0, then each SOC size)
        w2_sizes = [0] + [g.shape[1] for g in self.cones.soc_groups]
        lengths = [n, n, 2 * len(c_col), m, len(self.cones.nonneg_idx)]
        lengths += [g.size * g.shape[1] for g in self.cones.soc_groups]
        keys = ["q", "dx", "C", "dy"] + [("w2", k) for k in w2_sizes] + ["dz"]
        bounds = _offsets(lengths + [p])
        self.slot_kinds = {key: slots[a:b] for key, a, b in zip(keys, bounds[:-1], bounds[1:])}


def _solution(prog: ConicProgram, status: str, point, iters: int, norms) -> ConicSolution:
    """The solution at copies of the point (x, y, s, z); ``norms`` starts with
    the primal and dual residual norms there."""
    x, y, s, z = (v.copy() for v in point)
    return ConicSolution(
        status=status,
        x=x,
        y=y,
        z=z,
        s=s,
        obj=prog.objective(x),
        residuals={"primal": float(norms[0]), "dual": float(norms[1]), "gap": abs(float(s @ z))},
        iterations=iters,
    )


def _classify(prog: ConicProgram, point, norms) -> str:
    """The status a certificate at the point (x, y, s, z) proves; ties favor infeasible.

    ``norms`` holds the primal and dual residual norms at the point and the
    norm of C'(y, -z) for C = [A; G].  Primal infeasibility shows as a dual
    ray beyond 1e8 with positive b'y - h'z and vanishing homogeneous
    residual C'(y, -z); unboundedness as a primal ray beyond 1e8 that
    stays feasible in both row sets with negative linear objective along
    the ray.  Returns INFEASIBLE or UNBOUNDED when its certificate holds,
    and ITER_LIMIT otherwise, however far the iterates have diverged.
    """
    x, y, s, z = point
    primal, _, hom = norms
    ys = _norm(y) + _norm(z)
    if ys > 1e8 and float(prog.b @ y - prog.h @ z) > 1e-8 * ys and hom / ys <= 1e-6:
        return INFEASIBLE
    xs = _norm(x, s)
    if xs > 1e8 and primal / xs <= 1e-6 and float(prog.c @ x + prog.q @ (x * x)) / xs < -1e-8:
        return UNBOUNDED
    return ITER_LIMIT


def _members(
    progs: list[ConicProgram], patterns: dict | None = None
) -> list[tuple[ConicProgram, _Pattern]]:
    """The lockstep members of a solve: each program with its ``_Pattern``,
    one built per distinct sparsity pattern and shared by its programs.
    ``patterns``, if given, holds patterns of earlier solves by key and
    receives those built here."""
    keys = [_pattern_key(prog) for prog in progs]
    patterns = {} if patterns is None else patterns
    for prog, key in zip(progs, keys):
        if key not in patterns:
            patterns[key] = _Pattern(prog)
    return [(prog, patterns[key]) for prog, key in zip(progs, keys)]


def _index_dtype(*sizes: int) -> type:
    """The index dtype scipy picks for a sparse matrix none of whose
    dimensions and stored-entry counts exceeds the largest of ``sizes``."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _rows(data: list[np.ndarray], cols: list[np.ndarray], counts: list[np.ndarray], n_cols: int,
          idx: type) -> sp.csr_matrix:
    """CSR matrix of rows given in parts: the parts' stored entries and
    their columns, and the entries of each row, one part after the other.

    Entries keep their stored order, so each row's products sum as in the
    matrix it came from.  The index arrays are handed over in dtype ``idx``
    (see ``_index_dtype``), so scipy keeps them as they are.
    """
    counts = _cat(counts)
    return sp.csr_matrix(
        (np.concatenate(data), _cat(cols).astype(idx, copy=False), _offsets(counts, idx)),
        shape=(len(counts), n_cols),
    )


class _Stack:
    """The live members of a lockstep solve as one block-diagonal system.

    A member is a (program, pattern) pair.  Vectors hold the members one
    after the other within each kind: x is (x_1, ..., x_K), likewise y and
    z, and s is laid out as z.  The residual products use one CSR matrix
    C = [A; G], every member's A rows and then every member's G rows, each
    row in its stored order: Cx gives Ax and Gx, and the view C' = C.T
    (``CT``, made once per stack) sums each entry of C'(y, -z) over C's rows
    in ascending order, as a CSR copy of C' would.  The KKT matrix is block
    diagonal: member k's block is its own permuted matrix, so the
    factorization eliminates each block in that block's own ordering and
    every member's factor, solves and residuals come out exactly as they
    would for the member alone.  ``bnorm`` and ``cnorm`` are 1 plus each
    member's largest entry of (b, h) and of c, by which its residuals are
    measured.  The weights of the KKT data are summed kind by kind, which
    keeps each slot's summation order that of the member alone: the
    constant ones (Q, C' and C) once per stack into ``fixed``, and each
    round's (delta and -W^2) onto them.  Only the x diagonal takes both
    kinds, and there (0 + q) + delta is q + delta whichever sum comes
    first.  ``pivoting`` selects SuperLU's partial pivoting over static
    diagonal pivots, with the -W^2 block left without delta, which only
    partial pivoting factors safely; it is only used for single members,
    since its column ordering spans the whole matrix.

    Per-member quantities (``norms``, ``sums``, ``objective``) are segment
    reductions over the stacked vectors, as many numpy calls whatever the
    members, each segment reduced in an order that depends on that
    member's entries alone.

    Consecutive members on one pattern form a run.  Every index array (C's
    columns, K's pattern, the ordering, the slots and the cone groups) is
    built once per run, by shifting its pattern's array for all of the
    run's members at once, and the entries of A and G are gathered once per
    run, one row per member, from which C and the constant weights are
    read; so a stack costs a number of numpy calls that grows with its
    runs, not its members, and members that leave cost no more than a new
    stack of the rest.  The sparse matrices' index arrays are
    built in scipy's index dtype, so scipy neither scans nor copies them.
    """

    def __init__(self, members: list[tuple[ConicProgram, _Pattern]], pivoting: bool = False):
        self.members = members
        self.pivoting = pivoting
        runs: list[list] = []  # [pattern, members] per run
        for _, pat in members:
            if runs and runs[-1][0] is pat:
                runs[-1][1] += 1
            else:
                runs.append([pat, 1])
        pats, counts = [pt for pt, _ in runs], [k for _, k in runs]

        def each(values: list) -> np.ndarray:
            """Per-pattern values, repeated for each member of its run."""
            return np.repeat(values, counts)

        # entries per member of x, y, s and z, and of per-member values
        self.lengths = {
            "x": each([pt.n for pt in pats]), "y": each([pt.m for pt in pats]),
            "z": each([pt.p for pt in pats]), "k": np.ones(len(members), dtype=int),
        }
        self.segments = {kind: _segments(ls) for kind, ls in self.lengths.items()}
        # rows of the block-diagonal KKT matrix and its stored entries, per member
        self.sizes = self.lengths["x"] + self.lengths["y"] + self.lengths["z"]
        kkt_nnz = each([len(pt.kkt_indices) for pt in pats])
        c_nnz = sum(k * (len(pt.a_cols) + len(pt.g_cols)) for pt, k in runs)
        idx = _index_dtype(int(self.sizes.sum()), int(kkt_nnz.sum()), c_nnz)
        self.offsets = {kind: _offsets(ls, idx) for kind, ls in self.lengths.items()}
        n, m, p = self.n, self.m, self.p = [int(self.offsets[kind][-1]) for kind in "xyz"]
        offs = dict(self.offsets, K=_offsets(self.sizes, idx), nnz=_offsets(kkt_nnz, idx))
        # each run's pattern, its programs and its members' offsets by kind
        progs = [pr for pr, _ in members]
        bounds = _offsets(counts).tolist()
        at = [
            (pt, progs[a:b], {kind: o[a:b] for kind, o in offs.items()})
            for pt, a, b in zip(pats, bounds[:-1], bounds[1:])
        ]

        self.cones = _Cones.stack([(pt.cones, o["z"]) for pt, _, o in at])
        self.q, self.c, self.b, self.h = (
            np.concatenate([getattr(pr, a) for pr in progs]) for a in ("q", "c", "b", "h")
        )
        self.c0 = np.array([pr.c0 for pr in progs])
        self.bnorm = 1.0 + np.maximum(self.norms(self.b, "y"), self.norms(self.h, "z"))
        self.cnorm = 1.0 + self.norms(self.c, "x")
        # barrier degrees, floored at 1 so mu stays defined without cone rows
        self.nu = each([max(pt.cones.degree, 1) for pt in pats])

        # each run's stored entries of A, of G and of C = [A; G] (A's, then
        # G's), one row per member
        a_runs, g_runs = (
            [
                np.concatenate([getattr(pr, name).data[: getattr(pr, name).nnz] for pr in rp])
                .reshape(len(rp), -1)
                for _, rp, _ in at
            ]
            for name in ("A", "G")
        )
        c_runs = [np.hstack([a, g]) for a, g in zip(a_runs, g_runs)]
        # C's rows are the stack's (y, z): every member's A rows, then every member's G rows
        self.C = _rows(
            [a.ravel() for a in a_runs] + [g.ravel() for g in g_runs],
            [_shifted(pt.a_cols, o["x"]) for pt, _, o in at]
            + [_shifted(pt.g_cols, o["x"]) for pt, _, o in at],
            [np.tile(pt.a_counts, len(rp)) for pt, rp, _ in at]
            + [np.tile(pt.g_counts, len(rp)) for pt, rp, _ in at],
            n, idx,
        )
        # one view of C' for every round's residuals, sharing C's arrays
        self.CT = self.C.T

        # the block-diagonal KKT matrix and the slots of the weights by kind
        self.K = sp.csc_matrix(
            (
                np.zeros(int(offs["nnz"][-1])),
                _cat([_shifted(pt.kkt_indices, o["K"]) for pt, _, o in at]),
                _cat([_shifted(pt.kkt_indptr[:-1], o["nnz"]) for pt, _, o in at] + [offs["nnz"][-1:]]),
            ),
            shape=(int(offs["K"][-1]),) * 2,
        )
        self.sign = np.concatenate([np.tile(pt.sign, len(rp)) for pt, rp, _ in at])
        # global position in (x, y, z) of each row of the permuted matrix
        self.perm = _cat([
            _shifted(
                pt.perm,
                np.column_stack([o["x"], n - pt.n + o["y"], n + m - pt.n - pt.m + o["z"]]),
                pt.perm_part,
            )
            for pt, _, o in at
        ])
        # the weights' slots, kind by kind (see _Pattern.slot_kinds): the
        # constant weights are summed here, each round's added in kkt()
        def slots(kinds: list) -> np.ndarray:
            return _cat([
                _shifted(pt.slot_kinds[kind], o["nnz"])
                for kind in kinds for pt, _, o in at if kind in pt.slot_kinds
            ])

        self.fixed = np.bincount(
            slots(["q", "C"]),
            weights=np.concatenate([self.q] + [np.hstack([c, c]).ravel() for c in c_runs]),
            minlength=len(self.K.data),
        )
        w2_kinds = [("w2", 0)] + [("w2", g.shape[1]) for g in self.cones.soc_groups]
        self.slots = slots(["dx", "dy"] + w2_kinds + ["dz"])
        self.lu = None
        self.delta = None

    def spread(self, values, kind: str) -> np.ndarray:
        """Per-member values repeated over each member's entries of the given kind."""
        return np.repeat(values, self.lengths[kind])

    def _reduce(self, ufunc: np.ufunc, v: np.ndarray, kind: str) -> np.ndarray:
        """Per member, ``ufunc`` reduced over its part of v (0 when empty)."""
        out = np.zeros(len(self.members))
        starts, owners = self.segments[kind]
        if len(owners):
            out[owners] = ufunc.reduceat(v, starts)
        return out

    def norms(self, v: np.ndarray, kind: str) -> np.ndarray:
        """Per member, the largest absolute entry of its part of v (0 when empty)."""
        return self._reduce(np.maximum, np.abs(v), kind)

    def sums(self, v: np.ndarray, kind: str) -> np.ndarray:
        """Per member, the sum of its part of v (0 when empty)."""
        return self._reduce(np.add, v, kind)

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Per member, its objective c'x + c0 + 0.5 x'Qx at its part of x."""
        return self.sums(self.c * x, "x") + self.c0 + 0.5 * self.sums(self.q * (x * x), "x")

    def span(self, kind: str, k: int) -> slice:
        """Member k's entries of the given kind."""
        o = self.offsets[kind]
        return slice(int(o[k]), int(o[k + 1]))

    def part(self, k: int, x, y, s, z):
        """Member k's parts of (x, y, s, z)."""
        sx, sy, sz = (self.span(kind, k) for kind in "xyz")
        return x[sx], y[sy], s[sz], z[sz]

    def gather(self, kept: np.ndarray, *vectors) -> list[np.ndarray]:
        """The parts of the members where ``kept`` is True of each (vector, kind)."""
        masks = {kind: self.spread(kept, kind) for kind in {kind for _, kind in vectors}}
        return [v[masks[kind]] for v, kind in vectors]

    def residuals(self, x, y, s, z):
        """The dual residual Qx + c - A'y + G'z, the primal residuals Ax - b
        and Gx + s - h, and C'(y, -z), the dual residual's part that the
        infeasibility certificate reads."""
        m, cx = self.m, self.C @ x
        ct_yz = self.CT @ np.concatenate([y, -z])
        return self.q * x + self.c - ct_yz, cx[:m] - self.b, cx[m:] + s - self.h, ct_yz

    def kkt(self, w2: np.ndarray, deltas: np.ndarray) -> sp.csc_matrix:
        """Refill K, the block-diagonal permuted KKT matrix, for W^2's entries
        w2 and each member's regularization deltas[k]."""
        dx, dy, dz = (self.spread(deltas, kind) for kind in "xyz")
        if self.pivoting:
            dz = np.zeros(self.p)
        weights = np.concatenate([dx, -dy, -w2, -dz])
        np.add(
            self.fixed, np.bincount(self.slots, weights=weights, minlength=len(self.K.data)),
            out=self.K.data,
        )
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
        if self.pivoting:
            self.delta[self.perm >= self.n + self.m] = 0.0
        return True

    def solve(self, rx, ry, rz):
        """Solve with the current factor and one refinement step against the
        unregularized system."""
        n, m = self.n, self.m
        r = np.concatenate([rx, ry, rz])[self.perm]
        sol = self.lu.solve(r)
        sol = sol + self.lu.solve(r - (self.K @ sol - self.delta * self.sign * sol))
        out = np.empty_like(sol)
        out[self.perm] = sol
        return out[:n], out[n : n + m], out[n + m :]


# multiple of the cone identity added to a warm start's s and z in a member's
# first iterate, which keeps them strictly inside the cone.  Measured on the
# benchmark's clearings (ROADMAP item 5): 1e-2 re-centres a good start, and
# 1e-6 and below leave network hours close enough to the cone's boundary
# that some reach the rescue
_WARM_SHIFT = 1e-5
# iterations a cold member may take; one still unsettled in its last ends
# there, ITER_LIMIT at that round's point
_MAX_ITER = 200
# iterations a warm member may take before it is given up and run cold: two
# to three times a cold prosumer solve (16-24), five to nine times a warm
# one on average (5.5-9.3), and above the most a warm solve took in the
# benchmark's clearings and the generated full day (39)
_WARM_MAX_ITER = 50


def _checked_start(pat: _Pattern, start: Start) -> Start:
    """``start`` as arrays, after checking its (x, y, z) sizes against the pattern's."""
    parts = tuple(np.asarray(v, dtype=float) for v in start)
    if [v.shape for v in parts] != [(pat.n,), (pat.m,), (pat.p,)]:
        raise ValueError(
            f"start of sizes {[v.shape for v in parts]} for a program with "
            f"{pat.n} columns, {pat.m} equality rows and {pat.p} cone rows"
        )
    return parts


def _delta_alone(member, s: np.ndarray, z: np.ndarray, st: _Stack) -> float | None:
    """The regularization at which a member's KKT matrix factors on its own at
    (s, z), if any, factored as the stack ``st`` factors."""
    alone = _Stack([member], st.pivoting)
    w2 = _Scaling(member[1].cones, s, z).w2_values()
    for delta in (1e-9, 1e-6):
        if alone.factor(w2, np.array([delta])):
            return delta
    return None


def solve_socp(prog: ConicProgram, tol: float = 1e-9) -> ConicSolution:
    """Solve a standard-form cone program to the requested tolerance.

    Returns a point whose primal, dual and complementarity-gap residuals are
    all below ``tol``, or a non-optimal status (never raises on singular or
    diverging systems).  This is ``solve_socp_batch`` on one program.
    """
    return solve_socp_batch([prog], tol)[0]


def solve_socp_batch(
    progs: list[ConicProgram],
    tol: float = 1e-9,
    starts: list[Start | None] | None = None,
    patterns: dict | None = None,
) -> list[ConicSolution]:
    """Solve independent cone programs in lockstep, one solution per program.

    ``starts``, if given, holds one entry per program: None for the cold
    start, or the (x, y, z) of a solution with that program's columns, rows
    and cones, which the program then begins from (with s fitted to its
    rows and (s, z) shifted into the cone, see the module docstring).  Each
    program's solution is bit for bit the one it gets alone from the same
    start, whatever else is in the batch and in whatever order.
    ``patterns``, if given, is a dict that keeps what the solve derives from
    the programs' sparsity patterns: a caller that solves programs on the
    same patterns again passes the same dict each time, and each pattern is
    derived once.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not progs:
        return []
    starts = [None] * len(progs) if starts is None else list(starts)
    if len(starts) != len(progs):
        raise ValueError(f"{len(starts)} starts for {len(progs)} programs")
    members = _members(progs, patterns)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sols = _ipm_loop(members, tol, starts=starts)
        for i, sol in enumerate(sols):
            if sol.status == ITER_LIMIT:
                # the rescue: alone, cold, partial pivots, no slack delta
                (sols[i],) = _ipm_loop([members[i]], tol, pivoting=True)
                sols[i].iterations += sol.iterations
    return sols


def _ipm_loop(
    members: list[tuple[ConicProgram, _Pattern]], tol: float, pivoting=False, starts=None
) -> list[ConicSolution]:
    """Mehrotra predictor-corrector on the (program, pattern) ``members`` in lockstep.

    Every round takes one iteration of each live member.  Members share the
    factorization of the block-diagonal KKT matrix, the vectorized cone
    algebra, one residual evaluation and the round's checks: objectives,
    gaps and the stop and divergence tests are computed for the whole stack
    at once (``_Stack.objective``, ``_Stack.sums``), and only a member that
    ends is looked at on its own.  Step lengths, centering and the
    iteration count stay each member's own.  A member that finishes leaves
    the stack, and its solution reports the point and residual norms of the
    round it ends in.  A member ends at the top of a round when it has
    converged, diverged or reached its iteration cap, and ITER_LIMIT after a
    failed Newton step, when its block cannot be factored or its step
    collapsed.  The others go on as a stack of their own: with the same
    round again when members ended at its top or a failed factor left
    everyone where they were, else with the next.
    ``starts`` holds each member's warm start or None (all cold when
    omitted); a cold member stops at its ``_MAX_ITER``-th iteration, a warm
    one at its ``_WARM_MAX_ITER``-th.  ``pivoting`` chooses how the KKT
    matrix is factored (see ``_Stack``).  Returns one solution per member;
    a non-optimal one is INFEASIBLE or UNBOUNDED only where ``_classify``
    found the certificate, and ITER_LIMIT otherwise.
    """
    done: list[ConicSolution | None] = [None] * len(members)
    st = _Stack(members, pivoting)
    starts = starts or [None] * len(members)
    # per stack position: the member there and its iteration cap
    live = np.arange(len(members))
    limits = np.array([_MAX_ITER if start is None else _WARM_MAX_ITER for start in starts])

    # cold point: x and y at zero, (s, z) on the central ray of the cone
    e = st.cones.identity()
    x = np.zeros(st.n)
    y = np.zeros(st.m)
    s = e * st.spread(np.maximum(1.0, np.sqrt(st.bnorm)), "z")
    z = e * st.spread(np.maximum(1.0, np.sqrt(st.cnorm)), "z")
    warm = [k for k, start in enumerate(starts) if start is not None]
    if warm:
        given = [_checked_start(members[k][1], starts[k]) for k in warm]
        is_warm = np.zeros(len(members), dtype=bool)
        is_warm[warm] = True
        for i, (v, kind) in enumerate(((x, "x"), (y, "y"), (z, "z"))):
            v[st.spread(is_warm, kind)] = np.concatenate([g[i] for g in given])
        # s fitted to the member's own rows at its x: h - Gx projected onto the cone
        rows = st.spread(is_warm, "z")
        s[rows] = st.cones.project(st.h - (st.C @ x)[st.m :])[rows]
        for v in (s, z):
            v[rows] += _WARM_SHIFT * e[rows]

    def end(ended: list[int], status: str | None = None) -> None:
        """The members at stack positions ``ended`` end at this round's point
        and residual norms, with ``status`` or, when None, the status
        ``_classify`` gives."""
        for k in ended:
            prog, part = st.members[k][0], st.part(k, x, y, s, z)
            verdict = status or _classify(prog, part, norms[k])
            done[live[k]] = _solution(prog, verdict, part, it, norms[k])

    def drop(ended: list[int]) -> bool:
        """Take the members at stack positions ``ended`` out of the stack,
        with their parts of the iterate; False when no member is left."""
        nonlocal st, e, x, y, s, z, live, limits
        kept = np.ones(len(st.members), dtype=bool)
        kept[ended] = False
        if not kept.any():
            return False
        e, x, y, s, z, live, limits = st.gather(
            kept, (e, "z"), (x, "x"), (y, "y"), (s, "z"), (z, "z"), (live, "k"), (limits, "k")
        )
        survivors = [st.members[k] for k in np.flatnonzero(kept).tolist()]
        st = None  # free the old stack and its factor before building the new one
        st = _Stack(survivors, pivoting)
        return True

    it = 1
    while True:
        r_d, r_p, r_g, ct_yz = st.residuals(x, y, s, z)
        gap = st.sums(s * z, "z")
        mu = gap / st.nu
        # per member (rows): the primal and dual residual norms and |C'(y, -z)|
        norms = np.column_stack([
            np.maximum(st.norms(r_p, "y"), st.norms(r_g, "z")),
            st.norms(r_d, "x"),
            st.norms(ct_yz, "x"),
        ])
        rel_p = norms[:, 0] / st.bnorm
        rel_d = norms[:, 1] / st.cnorm
        rel_g = np.abs(gap) / (1.0 + np.abs(st.objective(x)))
        optimal = (rel_p <= tol) & (rel_d <= tol) & (rel_g <= tol)
        diverged = ~optimal & (
            (np.maximum(st.norms(x, "x"), st.norms(s, "z")) > 1e8)
            | (st.norms(y, "y") + st.norms(z, "z") > 1e8)
        )
        # a diverged member or one at its cap: a certificate or the iteration limit
        ended = optimal | diverged | (limits == it)
        if ended.any():
            end(np.flatnonzero(optimal).tolist(), OPTIMAL)
            end(np.flatnonzero(ended & ~optimal).tolist())
            if not drop(np.flatnonzero(ended).tolist()):
                return done
            # the round again for the others, its residuals from their own
            # stack: each member's come out bit for bit as on the larger one
            continue
        failed, moved = _newton_step(st, x, y, s, z, (r_d, r_p, r_g), mu, e)
        # a member whose block factors at neither regularization, or whose
        # step collapsed, was left where it was; it has not diverged, so no
        # certificate can hold.  The others took their step, or, when a
        # factor failed, take it again from the round's point.
        end(failed, ITER_LIMIT)
        if failed and not drop(failed):
            return done
        if moved:
            it += 1


def _newton_step(st: _Stack, x, y, s, z, r, mu: np.ndarray, e: np.ndarray):
    """One predictor-corrector step of every member of the stack, in place.

    Returns ``(failed, moved)``: the stack positions of the members whose
    KKT block factors at neither regularization, or else of those whose
    step length collapsed, and whether the other members took their step.
    A failed member is left where it was, and when a block does not factor
    no member moves.  Everything the step allocates, the factorization
    included, is freed on return, before the next round allocates again:
    SuperLU reserves about thirty times the stored entries of the matrix,
    and space handed back early is reused rather than left behind as
    fragments.  For the same reason the
    predictor's temporaries are freed before the corrector allocates, and
    the factor right after the last solve: arrays that outlive the factor
    sit above it on the heap and push the next round's factor onto fresh
    pages, which raised the peak RSS of the dense-clear benchmark.

    The round's cone quantities stay blocks (see ``_Cones.blocks``): the
    scaling is computed once, and only what the linear solve, the gap and
    the step take is written out as a vector on the slack rows.  The
    affine gap and the step lengths are computed for the whole stack at
    once.
    """
    r_d, r_p, r_g = r
    sc, deltas = _scale_and_factor(st, s, z)
    failed = np.flatnonzero(np.isnan(deltas)).tolist()
    if failed:
        return failed, False
    cones = st.cones
    lam_lam = _jprods(sc.lam, sc.lam)

    def solve(d_target):
        # linearized complementarity lam o (W^-1 ds + W dz) = d_target
        # gives ds = W g - W^2 dz with g = lam \ d_target
        g = sc.lam_div(d_target)
        dx, dyt, dz = st.solve(-r_d, -r_p, -r_g - cones.flat(sc.apply(g)))
        return g, dx, -dyt, dz

    def slack_parts(g, dz):
        # ds, dz and W dz as blocks
        dz_b = cones.blocks(dz)
        wdz = sc.apply(dz_b)
        return sc.apply([gb - wb for gb, wb in zip(g, wdz)]), dz_b, wdz

    def predictor():
        # the centering of each member and the second-order term
        # W^-1 ds o W dz of the affine direction
        g, _, _, dz = solve([-v for v in lam_lam])
        ds_b, dz_b, wdz = slack_parts(g, dz)
        a_aff = st.spread(np.minimum(1.0, cones.max_step(sc.s, ds_b, sc.z, dz_b)), "z")
        aff_gap = st.sums((s + a_aff * cones.flat(ds_b)) * (z + a_aff * dz), "z")
        # the cube is taken by Python's pow, member by member: numpy's
        # vectorized power may round differently on some CPUs
        sigma = [
            min(1.0, max(0.0, ratio ** 3)) if mu_k > 0 else 0.0
            for ratio, mu_k in zip((aff_gap / st.nu / mu).tolist(), mu.tolist())
        ]
        return sigma, _jprods(sc.apply(ds_b, inverse=True), wdz)

    sigma, second = predictor()
    sigma_mu = st.spread(np.array(sigma) * mu, "z")
    g, dx, dy, dz = solve(
        [c - ll - so for c, ll, so in zip(cones.blocks(sigma_mu * e), lam_lam, second)]
    )
    st.lu = None
    ds_b, dz_b, _ = slack_parts(g, dz)

    alpha = np.minimum(1.0, 0.99 * cones.max_step(sc.s, ds_b, sc.z, dz_b))
    moving = np.isfinite(alpha) & (alpha > 1e-14)
    stalled = np.flatnonzero(~moving).tolist()
    for v, dv, kind in ((x, dx, "x"), (y, dy, "y"), (s, cones.flat(ds_b), "z"), (z, dz, "z")):
        step = st.spread(alpha, kind) * dv
        if stalled:
            rows = st.spread(moving, kind)
            v[rows] += step[rows]
        else:
            v += step
    return stalled, True


def _scale_and_factor(st: _Stack, s: np.ndarray, z: np.ndarray):
    """NT scaling at (s, z) and the factored KKT matrix of the stack.

    Each member's block is regularized by 1e-9, or by 1e-6 where its block
    does not factor at 1e-9, exactly as the member alone would settle it.
    Returns the scaling and each member's regularization, NaN for a member
    whose block factors at neither; the stack is then left unfactored.
    """
    sc = _Scaling(st.cones, s, z)
    w2 = sc.w2_values()
    deltas = np.full(len(st.members), 1e-9)
    if not st.factor(w2, deltas):
        deltas = np.array([
            _delta_alone(member, s[st.span("z", k)], z[st.span("z", k)], st)
            for k, member in enumerate(st.members)
        ], dtype=float)
        if not np.isnan(deltas).any() and not st.factor(w2, deltas):
            raise RuntimeError("the stacked KKT matrix failed to factor where its blocks did")
    return sc, deltas
