"""Exact rational matrices and precision-aware linear algebra over Qp."""

from __future__ import annotations

from fractions import Fraction

from .errors import NotSymmetric, PrecisionLoss
from .padics import INF, PadicNumber


class RationalMatrix:
    """Dense matrix over Q with exact arithmetic."""

    def __init__(self, rows):
        self.rows = [[Fraction(x) for x in r] for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def transpose(self):
        return RationalMatrix([[self.rows[i][j] for i in range(self.m)] for j in range(self.n)])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.n != other.m:
                raise ValueError(f"shape mismatch: {self.m}x{self.n} times {other.m}x{other.n}")
            return RationalMatrix([
                [sum(self.rows[i][k] * other.rows[k][j] for k in range(self.n))
                 for j in range(other.n)]
                for i in range(self.m)])
        return RationalMatrix([[x * Fraction(other) for x in r] for r in self.rows])

    def __sub__(self, other):
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def is_symmetric(self):
        return self.m == self.n and all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.m) for j in range(i))

    def matvec(self, v):
        return [sum(self.rows[i][j] * Fraction(v[j]) for j in range(self.n))
                for i in range(self.m)]

    def rref(self):
        """Reduced row echelon form; returns (rref rows, pivot columns)."""
        a = [row[:] for row in self.rows]
        piv_cols = []
        r = 0
        for c in range(self.n):
            piv = next((i for i in range(r, self.m) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for i in range(self.m):
                if i != r and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            piv_cols.append(c)
            r += 1
            if r == self.m:
                break
        return a, piv_cols

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        if self.m != self.n:
            raise ValueError(f"cannot invert a non-square {self.m}x{self.n} matrix")
        aug = RationalMatrix([row + list(ident_row) for row, ident_row in
                              zip(self.rows, RationalMatrix.identity(self.n).rows)])
        red, piv = aug.rref()
        if piv != list(range(self.n)):
            raise ZeroDivisionError("singular matrix")
        return RationalMatrix([row[self.n:] for row in red])

    def __repr__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)


def moore_penrose(M: RationalMatrix) -> RationalMatrix:
    """Exact Moore-Penrose pseudoinverse of a symmetric rational matrix.

    Uses the full-rank factorization M = B C with B the pivot columns and C
    the nonzero rows of the reduced echelon form; then
    M+ = C^T (C C^T)^(-1) (B^T B)^(-1) B^T.
    """
    if not M.is_symmetric():
        raise NotSymmetric("pseudoinverse input must be symmetric")
    red, piv_cols = M.rref()
    r = len(piv_cols)
    if r == 0:
        return RationalMatrix([[Fraction(0)] * M.m for _ in range(M.n)])
    B = RationalMatrix([[M.rows[i][c] for c in piv_cols] for i in range(M.m)])
    C = RationalMatrix(red[:r])
    Bt = B.transpose()
    Ct = C.transpose()
    left = Ct * (C * Ct).inverse()
    right = (Bt * B).inverse() * Bt
    return left * right


class PadicKernel:
    __slots__ = ("basis", "rank", "loss")

    def __init__(self,
                 basis: list,       # kernel vectors, each a list of PadicNumber
                 rank: int,
                 loss: int):        # worst pivot valuation encountered (precision digits lost)
        self.basis, self.rank, self.loss = basis, rank, loss


PIVOT_GUARD = 2  # entries within this many digits of their precision cannot pivot


def _pick_pivot(a, rows, used_cols, ncols):
    """(row, column) of the first entry of minimal valuation among ``rows`` and
    the columns below ``ncols`` not in ``used_cols``; None if all are zero classes."""
    best, best_v = None, None
    for i in rows:
        for j in range(ncols):
            if j in used_cols:
                continue
            x = a[i][j]
            if x.is_zero():
                continue
            if best is None or x.v < best_v:
                best, best_v = (i, j), x.v
    return best


def _eliminate(a, ncols, below=False, guard=False):
    """Elimination over Qp of the rows a, in place, on the columns below ncols,
    each pivot picked by _pick_pivot.  Returns the pivots [(row, col)] in order, the
    rows left without a pivot and the row operations (i, i0, f), a[i] -= f a[i0], in order.

    below clears a pivot's column only in the rows not yet pivoted (clearing
    above a pivot would cost earlier pivots precision); guard raises
    PrecisionLoss when the picked pivot has PIVOT_GUARD digits or fewer.
    """
    pivots, cols, free, ops = [], [], list(range(len(a))), []
    for _ in range(min(len(a), ncols)):
        best = _pick_pivot(a, free, cols, ncols)
        if best is None:
            break
        i0, j0 = best
        pivot = a[i0][j0]
        if guard and pivot.N - pivot.v <= PIVOT_GUARD:
            raise PrecisionLoss(
                f"pivot candidate at ({i0},{j0}) has only {pivot.N - pivot.v} digits")
        pivots.append(best)
        cols.append(j0)
        free.remove(i0)
        inv = pivot.inverse()
        for i in free if below else range(len(a)):
            if i == i0 or a[i][j0].is_zero():
                continue
            f = a[i][j0] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[i0])]
            ops.append((i, i0, f))
    return pivots, free, ops


def padic_kernel(rows) -> PadicKernel:
    """Kernel basis of a matrix over Qp by echelon reduction.

    Pivots are chosen with minimal valuation (maximal p-adic size) to control
    precision loss.  Kernel vectors are normalized so that their first entry
    of minimal valuation is exactly 1.  Raises PrecisionLoss when the rank is
    not certifiable at the working precision.
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    p = next((x.p for r in a for x in r if isinstance(x, PadicNumber)), None)
    if p is None:
        raise ValueError("empty matrix")
    pivots, free, _ = _eliminate(a, n, guard=True)
    # remaining rows must be indistinguishable from zero
    if any(not x.is_zero() for i in free for x in a[i]):
        raise PrecisionLoss("residual row is nonzero after elimination")
    piv_cols = [j for _, j in pivots]
    one_prec = max((x.N for r in a for x in r if x.N < INF), default=12) + 4
    basis = []
    for jf in range(n):
        if jf in piv_cols:
            continue
        vec = [PadicNumber.exact_zero(p)] * n
        vec[jf] = PadicNumber.from_int(1, p, one_prec)  # exact by choice of representative
        for i, j in pivots:
            vec[j] = -(a[i][jf] / a[i][j])
        basis.append(_normalize_kernel_vector(vec))
    loss = max([0] + [a[i][j].v for i, j in pivots])
    return PadicKernel(basis=basis, rank=len(pivots), loss=loss)


def _normalize_kernel_vector(vec):
    vmin, idx = INF, None
    for j, x in enumerate(vec):
        if not x.is_zero() and x.v < vmin:
            vmin, idx = x.v, j
    if idx is None:
        return vec
    inv = vec[idx].inverse()
    out = []
    for j, x in enumerate(vec):
        if j == idx:
            out.append(PadicNumber.from_int(1, x.p, max(x.N - x.v, 2)))
        else:
            out.append(x * inv)
    return out


def padic_solve(rows):
    """The solver b -> x of A x = b over Qp for square nonsingular A; min-valuation
    pivots, no PIVOT_GUARD.  A is eliminated once, and each b takes its row
    operations, in order, and the divisions by the pivots."""
    a = [list(r) for r in rows]
    pivots, free, ops = _eliminate(a, len(a))
    if free:
        raise PrecisionLoss("matrix is singular to working precision")

    def solve(b):
        b = list(b)
        for i, i0, f in ops:
            b[i] = b[i] - f * b[i0]
        return [b[i] / a[i][j] for i, j in sorted(pivots, key=lambda ij: ij[1])]
    return solve


def padic_det(rows):
    """Determinant over Qp with min-valuation pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    p = a[0][0].p
    prec0 = max((x.N for r in a for x in r if x.N < INF), default=12) + 8
    pivots, free, _ = _eliminate(a, n, below=True)
    if free:
        # remaining block indistinguishable from zero: det is a zero class
        det = PadicNumber.unknown_zero(p, min(x.N for i in free for x in a[i]))
    else:
        # the sign of the permutation row -> column: the parity of its inversions
        cols = [j for _, j in sorted(pivots)]
        odd = sum(c > d for k, c in enumerate(cols) for d in cols[k + 1:]) % 2
        det = PadicNumber.from_int(-1 if odd else 1, p, prec0)
    for i, j in pivots:
        det = det * a[i][j]
    return det
