"""Test programs written as  A x = b, x in K,  restated in the solver's form.

Many test programs are easiest to state with the cone constraint on the
variables themselves.  ``lifted`` turns such a program into
A x = b, G x + s = h, s in K: every cone coordinate of x becomes one row
-x_j + s_j = 0 (G = -I on those columns, h = 0), so s = x there, and the
equality duals and the cone duals z keep their meaning.  ``Free`` marks
coordinates without a cone; they get no row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from lemclear.socp import ConicProgram


@dataclass(frozen=True)
class FreeBlock:
    size: int
    kind: str = "free"


def Free(k: int) -> FreeBlock:
    return FreeBlock(k)


def lifted(c, A, b, cones, q=None, c0=0.0) -> ConicProgram:
    """min c'x + 0.5 sum q_i x_i^2 + c0  s.t.  A x = b,  x in K (blocks in ``cones``)."""
    cols, off = [], 0
    for cb in cones:
        if cb.kind != "free":
            cols.extend(range(off, off + cb.size))
        off += cb.size
    G = sp.csr_matrix(
        (-np.ones(len(cols)), (np.arange(len(cols)), cols)), shape=(len(cols), off)
    )
    return ConicProgram(
        c=c,
        A=A,
        b=b,
        G=G,
        h=np.zeros(len(cols)),
        cones=tuple(cb for cb in cones if cb.kind != "free"),
        q=q,
        c0=c0,
    )
