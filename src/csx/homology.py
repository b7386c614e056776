"""Exact integer homology of truncated simplicial sets.

Chains are normalized: one generator per nondegenerate simplex, degenerate
faces dropped.  Coreductions with aces shrink them to a Morse complex, whose
boundaries are reduced to Smith normal form over the integers with
arbitrary-precision arithmetic; an optional checked mode fails loudly if any
intermediate entry would leave the signed 64-bit range.
"""

from __future__ import annotations

from array import array
from operator import add

from .simpset import TruncatedSimplicialSet, assert_valid, nondegenerate_list

INT64_MAX = 2**63 - 1
_CROSSCHECK_PRIME = 2**31 - 1


class SparseMatrix:
    """Integer matrix as a {(row, col): value} dict of its nonzero entries."""

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int] | None = None):
        self.rows, self.cols, self.entries = rows, cols, {} if entries is None else entries

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


class SmithForm:
    """Invariant factors plus optional unimodular certificates.

    When present, left and right satisfy left * M * right == diag(factors)
    extended by zeros to the shape of M.  A sparse reduction that leaves a
    nonempty block after unit elimination keeps that block as remainder and
    its certified Smith form as remainder_form; all torsion lives there.
    """

    def __init__(self, shape, factors, left=None, right=None, remainder=None, remainder_form=None):
        self.shape, self.factors, self.left, self.right = shape, factors, left, right
        self.remainder, self.remainder_form = remainder, remainder_form

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


def _det(T) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Step k replaces each later row by (row * pivot - a * top) // prev, a its
    entry in column k; entries stay minors of T, so the division is exact.
    With positive pivots, most steps on _dense_snf's transforms have pivot
    == prev, and then only the rows with a != 0 change.
    """
    A = [list(row) for row in T]
    sign, prev = 1, 1
    for k in range(len(A)):
        i = next((i for i in range(k, len(A)) if A[i][k]), None)
        if i is None:
            return 0
        if i != k:
            A[k], A[i] = A[i], A[k]
            sign = -sign
        top = A[k]
        if top[k] < 0:
            top, sign = [-x for x in top], -sign
        pivot, rest = top[k], top[k + 1 :]
        nonzero = [(j, y) for j, y in enumerate(rest, k + 1) if y]
        for row in A[k + 1 :]:
            a = row[k]
            if pivot != prev:
                row[k + 1 :] = [(x * pivot - a * y) // prev for x, y in zip(row[k + 1 :], rest)]
            elif a:
                for j, y in nonzero:
                    row[j] -= a * y // prev
        prev = pivot
    return sign * prev


def verify_transforms(matrix, sf: SmithForm) -> bool:
    """Exact check that sf certifies the Smith form of matrix, a list of rows.

    sf must have the matrix's shape R x C, an R x R left and a C x C right
    transform, and positive factors, each dividing the next; then left * M *
    right must be the diagonal of the factors.  M * right is built row by
    row as integer combinations of the rows of right, one per nonzero entry
    of M, and left * (M * right) likewise.  Last, both transforms must be
    unimodular: determinant +-1, computed exactly by _det.
    """
    if sf.left is None or sf.right is None:
        return False
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
    return abs(_det(sf.left)) == 1 == abs(_det(sf.right))


def rank_mod_p(sm: SparseMatrix, p: int = _CROSSCHECK_PRIME) -> int:
    """Rank over the field with p elements, used as an independent cross-check."""
    return _sweep(sm.entries, p=p)[0]


class ChainComplexData:
    """Normalized chain data: per-dimension bases and boundary columns.

    boundaries[n] maps dimension n to n-1 (None at index 0).  It is a list
    with one column per basis simplex of dimension n: column c is a
    {row: coefficient} dict of the nonzero entries of the boundary of c.
    """

    def __init__(self, max_dim: int, basis: list[list[int]], boundaries: list[list[dict[int, int]] | None]):
        self.max_dim, self.basis, self.boundaries = max_dim, basis, boundaries

    def basis_sizes(self) -> list[int]:
        return [len(b) for b in self.basis]


def normalized_complex(X: TruncatedSimplicialSet) -> ChainComplexData:
    """Boundary columns on nondegenerate simplices with signs (-1)^i.

    Composing consecutive boundaries must give zero; that and the identity
    audit guard against malformed inputs.
    """
    assert_valid(X)
    basis = [nondegenerate_list(X, n) for n in range(X.max_dim + 1)]
    positions = [{k: idx for idx, k in enumerate(level)} for level in basis]
    boundaries: list[list[dict[int, int]] | None] = [None]
    for n in range(1, X.max_dim + 1):
        columns = []
        below = positions[n - 1]
        for face_row in zip(*(map(face.__getitem__, basis[n]) for face in X.faces[n])):
            column: dict[int, int] = {}
            for i, f in enumerate(face_row):
                row = below.get(f)
                if row is None:
                    continue
                v = column.get(row, 0) + (1 if i % 2 == 0 else -1)
                if v:
                    column[row] = v
                else:
                    del column[row]
            columns.append(column)
        boundaries.append(columns)
    for n in range(2, X.max_dim + 1):
        _assert_composite_zero(boundaries[n - 1], boundaries[n])
    return ChainComplexData(X.max_dim, basis, boundaries)


def _assert_composite_zero(outer: list[dict[int, int]], inner: list[dict[int, int]], error=ValueError):
    for column in inner:
        sums: dict[int, int] = {}
        for r, v in column.items():
            for r2, v2 in outer[r].items():
                sums[r2] = sums.get(r2, 0) + v * v2
        if any(sums.values()):
            raise error("boundary of boundary is nonzero")


class HomologyReport:
    """Integer homology in each dimension: free rank plus torsion orders."""

    # the top dimension of a truncation lacks the boundaries from one dimension up
    unreliable_top = True

    def __init__(self, groups: list[tuple[int, tuple[int, ...]]]):
        self.groups = groups

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


def unit_pairing(cc: ChainComplexData) -> list[tuple[int, int | None, int]]:
    """Coreductions with aces: every cell of the complex, in removal order.

    A cell whose only live face has coefficient +-1 goes with that face as
    the step (n, row, col), a coreduction.  Candidates are the cells a
    removal leaves with one live face, taken from a stack.  When it runs
    dry, the first live cell of the lowest live dimension (it has no live
    face) goes alone as the step (n, None, col), an ace (Mrozek-Batko,
    Coreduction homology algorithm, 2009).  check_unit_pairing certifies it.
    """
    sizes, top, faces = cc.basis_sizes(), cc.max_dim, cc.boundaries
    cofaces = [[array("i") for _ in range(s)] for s in sizes[:-1]]
    for n in range(1, top + 1):
        cf = cofaces[n - 1]
        for c, column in enumerate(faces[n]):
            for r in column:
                cf[r].append(c)
    live = [[0] * sizes[0]] + [list(map(len, level)) for level in faces[1:]]
    dead = [bytearray(s) for s in sizes]
    stack, order = [], []

    def remove(m, j):
        dead[m][j] = 1
        if m < top:
            gone, count = dead[m + 1], live[m + 1]
            for k in cofaces[m][j]:
                if not gone[k]:
                    count[k] -= 1
                    if count[k] == 1:
                        stack.append((m + 1, k))

    n = k = 0
    while n <= top:
        while stack:
            m, c = stack.pop()
            if dead[m][c] or live[m][c] != 1:
                continue
            column = faces[m][c]
            r = next(r for r in column if not dead[m - 1][r])
            if column[r] in (1, -1):
                order.append((m, r, c))
                remove(m - 1, r)
                remove(m, c)
        # every cell below dimension n, and below k in dimension n, is dead
        if k == sizes[n]:
            n, k = n + 1, 0
        elif dead[n][k]:
            k += 1
        else:
            order.append((n, None, k))
            remove(n, k)
    return order


def check_unit_pairing(cc: ChainComplexData, order) -> None:
    """Certify a removal order of coreductions with aces; raise ArithmeticError if not.

    Each step is a pair (n, row, col) on a +-1 entry of boundary n, or an
    ace (n, None, col).  Every cell goes exactly once, and each face of a
    pair's col other than its row, and of an ace, goes at an earlier step.
    The steps then fall along every gradient path, so the pairs are an
    acyclic matching whose critical cells are the aces.  Costs O(nnz).
    """
    sizes = cc.basis_sizes()
    steps = [[-1] * s for s in sizes]
    for t, (n, r, c) in enumerate(order):
        cells = sizes[n] if 0 <= n <= cc.max_dim else 0
        if not 0 <= c < cells or r is not None and (n == 0 or cc.boundaries[n][c].get(r) not in (1, -1)):
            raise ArithmeticError(f"unit pairing: step {t} is not a cell, or not a +-1 entry of a boundary")
        for m, k in ((n, c),) if r is None else ((n - 1, r), (n, c)):
            if steps[m][k] != -1:
                raise ArithmeticError(f"unit pairing: cell {k} of dimension {m} is used twice")
            steps[m][k] = t
    for n, level in enumerate(steps):
        if -1 in level:
            raise ArithmeticError(f"unit pairing: cell {level.index(-1)} of dimension {n} is never removed")
    for n in range(1, cc.max_dim + 1):
        below = steps[n - 1]
        for c, column in enumerate(cc.boundaries[n]):
            t = steps[n][c]
            # a partner's step is t itself, any other face's must be smaller
            if order[t][0] == n and any(below[r] > t for r in column):
                fault = f"ace {t} still has a live face" if order[t][1] is None else f"pair {t} is not acyclic"
                raise ArithmeticError(f"unit pairing: {fault}")


def _morse_rows(columns, pairs, rows, cols, policy) -> list[dict[int, int]]:
    """The rows of a Morse boundary, by coflow; row i is {j: entry}.

    columns is boundary n, pairs its (row, col) pairs in removal order, rows
    and cols the critical cells of dimensions n - 1 and n.  For critical e,
    phi(e) = 1 and, pair by pair, phi(r) = -eps * sum of boundary(c)_r' *
    phi(r') over the faces r' != r of c, eps = boundary(c)_r; other cells
    have phi 0.  Entry (e, c) is then the sum of boundary(c)_r * phi(r): the
    gradient paths from c to e (Forman, Morse theory for cell complexes).
    """
    out = []
    for e in rows:
        phi = {e: 1}
        for r, c in pairs:
            column = columns[c]
            s = sum([v * phi[r2] for r2, v in column.items() if r2 in phi])
            if s:
                phi[r] = -column[r] * s
        _check_range(phi.values(), policy)
        sums = (sum([v * phi[r] for r, v in columns[c].items() if r in phi]) for c in cols)
        out.append({j: s for j, s in enumerate(sums) if s})
    return out


def homology_report(cc: ChainComplexData, policy: str = "bigint") -> HomologyReport:
    """Betti numbers and torsion from the Morse complex of coreductions with aces.

    unit_pairing's certified order leaves the aces as the critical cells of
    an acyclic matching, whose Morse complex has the homology of cc.  Its
    boundaries must compose to zero.  Each goes through the sparse Smith
    form; the certificate of the remainder, which holds all torsion, is
    re-verified, and the rank is cross-checked over a large prime field.
    The top dimension lacks the incoming boundary and is flagged unreliable.
    """
    top = cc.max_dim
    order = unit_pairing(cc)
    check_unit_pairing(cc, order)
    critical, pairs = [[] for _ in range(top + 1)], [[] for _ in range(top + 1)]
    for n, r, c in order:
        if r is None:
            critical[n].append(c)
        else:
            pairs[n].append((r, c))
    ranks, factors, below = [0] * (top + 2), [()] * (top + 2), []
    for n in range(1, top + 1):
        rows = _morse_rows(cc.boundaries[n], pairs[n], critical[n - 1], critical[n], policy)
        # the rows of a boundary are the columns of its coboundary
        _assert_composite_zero(rows, below, ArithmeticError)
        below = rows
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
        sm = SparseMatrix(len(critical[n - 1]), len(critical[n]), entries)
        sf = smith_normal_form(sm, policy=policy)
        if sf.remainder and not verify_transforms(sf.remainder, sf.remainder_form):
            raise ArithmeticError(f"remainder certificate failed for boundary {n}")
        if rank_mod_p(sm) != sf.rank:
            raise ArithmeticError(f"rank cross-check failed for boundary {n}")
        ranks[n], factors[n] = sf.rank, sf.factors
    torsion = [tuple(d for d in f if d > 1) for f in factors]
    groups = [(len(critical[k]) - ranks[k] - ranks[k + 1], torsion[k + 1]) for k in range(top + 1)]
    return HomologyReport(groups)


def export_sparse_matrix(columns, rows: int) -> str:
    """Triplet text: a 'dims R C' header, then one 'row col value' per entry, sorted."""
    lines = [f"dims {rows} {len(columns)}"]
    for r, c, v in sorted((r, c, v) for c, column in enumerate(columns) for r, v in column.items()):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"
