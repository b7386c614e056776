"""Exact integer homology of truncated simplicial sets.

Chains are normalized: one generator per nondegenerate simplex, degenerate
faces dropped.  Boundary matrices are reduced to Smith normal form over the
integers with arbitrary-precision arithmetic; an optional checked mode fails
loudly if any intermediate entry would leave the signed 64-bit range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .simpset import TruncatedSimplicialSet, assert_valid, nondegenerate_list

INT64_MAX = 2**63 - 1
_CROSSCHECK_PRIME = 2**31 - 1


@dataclass
class SparseMatrix:
    """Integer matrix as a {(row, col): value} dict of its nonzero entries."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def to_dense(self) -> list[list[int]]:
        M = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            M[r][c] = v
        return M

    @classmethod
    def from_dense(cls, M: list[list[int]]) -> "SparseMatrix":
        rows = len(M)
        cols = len(M[0]) if rows else 0
        entries = {(r, c): v for r, row in enumerate(M) for c, v in enumerate(row) if v}
        return cls(rows, cols, entries)


@dataclass
class SmithForm:
    """Invariant factors plus optional unimodular certificates.

    When present, left and right satisfy left * M * right == diag(factors)
    extended by zeros to the shape of M.  A sparse reduction that leaves a
    nonempty block after unit elimination keeps that block as remainder and
    its certified Smith form as remainder_form; all torsion lives there.
    """

    shape: tuple[int, int]
    factors: tuple[int, ...]
    left: list[list[int]] | None = None
    right: list[list[int]] | None = None
    remainder: list[list[int]] | None = None
    remainder_form: SmithForm | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)


def _check_range(values, policy):
    if policy == "checked":
        for v in values:
            if v > INT64_MAX or v < -INT64_MAX - 1:
                raise OverflowError("entry left the signed 64-bit range under checked policy")


def _dense_snf(M, R, C, policy):
    # Row ops mirror onto U, column ops onto V, keeping U*input*V == A.
    A = [row[:] for row in M]
    U = [[int(i == j) for j in range(R)] for i in range(R)]
    V = [[int(i == j) for j in range(C)] for i in range(C)]
    factors = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, R):
            row = A[i]
            for j in range(t, C):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            A[t], A[i] = A[i], A[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in A:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear below the pivot
            for i in range(t + 1, R):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                        _check_range(A[i], policy)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
            if any(A[i][t] for i in range(t + 1, R)):
                continue
            # clear to the right of the pivot
            redo = False
            for j in range(t + 1, C):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                        _check_range((row[j] for row in A), policy)
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        redo = True
                        break
            if redo:
                continue
            # pivot must divide everything below and to the right
            fix = None
            d = A[t][t]
            for i in range(t + 1, R):
                row = A[i]
                for j in range(t + 1, C):
                    if row[j] % d:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[fix])]
            U[t] = [a + b for a, b in zip(U[t], U[fix])]
            _check_range(A[t], policy)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        factors.append(A[t][t])
        t += 1
        if t == R or t == C:
            break
    return SmithForm((R, C), tuple(factors), U, V)


def _sweep(entries, policy="bigint", p=None):
    """Pivot column by column, cheapest columns first; return (pivots, rows left).

    Each pass visits the live columns in order of their count at the start
    of the pass and, in each, pivots on the shortest row whose entry there
    qualifies: +-1 over the integers, any nonzero entry mod the prime p.
    Row operations clear the rest of the column, then the pivot row and
    column are dropped.  Over the integers a unit pivot is a unimodular
    step, so the invariant factors are one 1 per pivot plus those of the
    rows left over.  Fill-in can create units in columns already passed, so
    passes repeat until one finds no pivot.  A pass costs O(nnz) plus the
    fill-in it makes; picking the globally cheapest pivot each time would
    cost O(nnz) per pivot.  Counts are not updated within a pass: on the
    SC9 top boundary that took less time and memory than a heap kept
    current under fill-in.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if p is not None:
            v %= p
            if not v:
                continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    pivots = 0
    progress = True
    while progress:
        progress = False
        for c in sorted(cols, key=lambda c: (len(cols[c]), c)):
            hits = cols.get(c)
            if hits is None:
                continue
            candidates = hits if p is not None else [r for r in hits if rows[r][c] in (1, -1)]
            if not candidates:
                continue
            r = min(candidates, key=lambda r: (len(rows[r]), r))
            prow = rows.pop(r)
            # a unit is its own inverse
            inv = prow[c] if p is None else pow(prow[c], -1, p)
            for r2 in list(hits):
                if r2 == r:
                    continue
                row2 = rows[r2]
                q = row2[c] * inv
                for c2, v2 in prow.items():
                    nv = row2.get(c2, 0) - q * v2
                    if p is not None:
                        nv %= p
                    if nv:
                        row2[c2] = nv
                        cols[c2].add(r2)
                    else:
                        row2.pop(c2, None)
                        cols[c2].discard(r2)
                _check_range(row2.values(), policy)
                if not row2:
                    del rows[r2]
            for c2 in prow:
                hits2 = cols[c2]
                hits2.discard(r)
                if not hits2:
                    del cols[c2]
            pivots += 1
            progress = True
    return pivots, rows


def _sparse_unit_reduce(sm: SparseMatrix, policy):
    """Strip unit pivots off a sparse matrix; return (count, dense remainder)."""
    units, rows = _sweep(sm.entries, policy)
    remaining_rows = sorted(rows)
    remaining_cols = sorted({c for row in rows.values() for c in row})
    col_pos = {c: j for j, c in enumerate(remaining_cols)}
    dense = [[0] * len(remaining_cols) for _ in remaining_rows]
    for i, r in enumerate(remaining_rows):
        for c, v in rows[r].items():
            dense[i][col_pos[c]] = v
    return units, dense


def smith_normal_form(matrix, transforms=False, policy="bigint") -> SmithForm:
    """Smith normal form over the integers.

    matrix is either a dense list of rows or a SparseMatrix.  With
    transforms=True the reduction runs densely and returns unimodular
    certificates; without them the input takes a unit-pivot elimination
    first and only the remainder is reduced densely, with certificates.
    """
    if policy not in ("bigint", "checked"):
        raise ValueError(f"unknown overflow policy {policy!r}")
    if isinstance(matrix, SparseMatrix):
        sm = matrix
    else:
        sm = SparseMatrix.from_dense(matrix)
    _check_range(sm.entries.values(), policy)
    if transforms:
        return _dense_snf(sm.to_dense(), sm.rows, sm.cols, policy)
    units, remainder = _sparse_unit_reduce(sm, policy)
    if not remainder:
        return SmithForm((sm.rows, sm.cols), (1,) * units)
    tail = _dense_snf(remainder, len(remainder), len(remainder[0]), policy)
    return SmithForm((sm.rows, sm.cols), (1,) * units + tail.factors, remainder=remainder, remainder_form=tail)


def _is_square(rows, size: int) -> bool:
    return len(rows) == size and all(len(row) == size for row in rows)


def _combine(terms, width: int) -> list[int]:
    """The sum of c * row over the (c, row) terms, skipping zero coefficients."""
    total = [0] * width
    for c, row in terms:
        if c:
            total = list(map(add, total, map(c.__mul__, row)))
    return total


def verify_transforms(matrix, sf: SmithForm) -> bool:
    """Exact check that sf certifies the Smith form of matrix.

    sf must have the matrix's shape R x C, an R x R left and a C x C right
    transform, and positive factors, each dividing the next; then left * M *
    right must be the diagonal of the factors.  M * right is built row by
    row as integer combinations of the rows of right, one per nonzero entry
    of M, and left * (M * right) likewise.
    """
    if sf.left is None or sf.right is None:
        return False
    if isinstance(matrix, SparseMatrix):
        R, C = matrix.rows, matrix.cols
        nonzeros = [[] for _ in range(R)]
        for (r, c), v in matrix.entries.items():
            nonzeros[r].append((v, c))
    else:
        R, C = len(matrix), len(matrix[0]) if matrix else 0
        if any(len(row) != C for row in matrix):
            return False
        nonzeros = [[(v, c) for c, v in enumerate(row) if v] for row in matrix]
    factors = sf.factors
    if tuple(sf.shape) != (R, C) or len(factors) > min(R, C):
        return False
    if not (_is_square(sf.left, R) and _is_square(sf.right, C)):
        return False
    if any(f <= 0 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return False
    V = sf.right
    MV = [_combine([(v, V[c]) for v, c in row], C) for row in nonzeros]
    for i, Urow in enumerate(sf.left):
        want = [0] * C
        if i < len(factors):
            want[i] = factors[i]
        if _combine(zip(Urow, MV), C) != want:
            return False
    return True


def rank_mod_p(sm: SparseMatrix, p: int = _CROSSCHECK_PRIME) -> int:
    """Rank over the field with p elements, used as an independent cross-check."""
    return _sweep(sm.entries, p=p)[0]


@dataclass
class ChainComplexData:
    """Normalized chain data: per-dimension bases and boundary matrices.

    boundaries[n] maps dimension n to n-1 (None at index 0).
    """

    max_dim: int
    basis: list[list[int]]
    boundaries: list[SparseMatrix | None]

    def basis_sizes(self) -> list[int]:
        return [len(b) for b in self.basis]


def normalized_complex(X: TruncatedSimplicialSet) -> ChainComplexData:
    """Boundary matrices on nondegenerate simplices with signs (-1)^i.

    Composing consecutive boundaries must give zero; that and the identity
    audit guard against malformed inputs.
    """
    assert_valid(X)
    basis = [nondegenerate_list(X, n) for n in range(X.max_dim + 1)]
    positions = [{k: idx for idx, k in enumerate(level)} for level in basis]
    boundaries: list[SparseMatrix | None] = [None]
    for n in range(1, X.max_dim + 1):
        entries: dict[tuple[int, int], int] = {}
        faces, below = X.faces[n], positions[n - 1]
        for col, k in enumerate(basis[n]):
            for i, f in enumerate(faces[k]):
                row = below.get(f)
                if row is None:
                    continue
                key = (row, col)
                v = entries.get(key, 0) + (1 if i % 2 == 0 else -1)
                if v:
                    entries[key] = v
                elif key in entries:
                    del entries[key]
        boundaries.append(SparseMatrix(len(basis[n - 1]), len(basis[n]), entries))
    for n in range(2, X.max_dim + 1):
        _assert_composite_zero(boundaries[n - 1], boundaries[n])
    return ChainComplexData(X.max_dim, basis, boundaries)


def _assert_composite_zero(outer: SparseMatrix, inner: SparseMatrix):
    by_col: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in outer.entries.items():
        by_col.setdefault(c, []).append((r, v))
    sums: dict[tuple[int, int], int] = {}
    for (r, c), v in inner.entries.items():
        for r2, v2 in by_col.get(r, ()):
            key = (r2, c)
            sums[key] = sums.get(key, 0) + v * v2
    if any(sums.values()):
        raise ValueError("boundary of boundary is nonzero")


@dataclass
class HomologyReport:
    """Integer homology in each dimension: free rank plus torsion orders."""

    groups: list[tuple[int, tuple[int, ...]]]
    unreliable_top: bool = True

    def to_json(self) -> dict:
        return {
            "H": [{"betti": b, "torsion": list(t)} for b, t in self.groups],
            "unreliable_top": self.unreliable_top,
        }

    def pretty(self, k: int) -> str:
        b, tors = self.groups[k]
        parts = ["Z" if b == 1 else f"Z^{b}"] if b else []
        parts += [f"Z/{t}" for t in tors]
        return " + ".join(parts) if parts else "0"


_TRANSFORM_LIMIT = 200


def homology_report(cc: ChainComplexData, policy: str = "bigint") -> HomologyReport:
    """Betti numbers and torsion from Smith forms of the boundary matrices.

    Matrices up to 200x200 are reduced with certificates and re-verified
    exactly.  Larger ones go through the sparse path: the certificate of the
    remainder left by unit elimination is re-verified, and the rank of the
    whole matrix is cross-checked over a large prime field.  The top
    dimension lacks the incoming boundary and is flagged unreliable.
    """
    sizes = cc.basis_sizes()
    ranks = [0] * (cc.max_dim + 2)
    factors: list[tuple[int, ...]] = [()] * (cc.max_dim + 2)
    for n in range(1, cc.max_dim + 1):
        sm = cc.boundaries[n]
        small = sm.rows <= _TRANSFORM_LIMIT and sm.cols <= _TRANSFORM_LIMIT
        sf = smith_normal_form(sm, transforms=small, policy=policy)
        if small:
            if not verify_transforms(sm, sf):
                raise ArithmeticError(f"certificate re-verification failed for boundary {n}")
        else:
            if sf.remainder and not verify_transforms(sf.remainder, sf.remainder_form):
                raise ArithmeticError(f"remainder certificate failed for boundary {n}")
            if rank_mod_p(sm) != sf.rank:
                raise ArithmeticError(f"rank cross-check failed for boundary {n}")
        ranks[n] = sf.rank
        factors[n] = sf.factors
    groups = []
    for k in range(cc.max_dim + 1):
        betti = sizes[k] - ranks[k] - ranks[k + 1]
        torsion = tuple(d for d in factors[k + 1] if d > 1)
        groups.append((betti, torsion))
    return HomologyReport(groups, unreliable_top=True)


def export_sparse_matrix(sm: SparseMatrix) -> str:
    """Triplet text: a 'dims R C' header, then one 'row col value' per entry."""
    lines = [f"dims {sm.rows} {sm.cols}"]
    for (r, c), v in sorted(sm.entries.items()):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"
