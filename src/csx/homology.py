"""Exact integer homology of truncated simplicial sets.

Chains are normalized: one generator per nondegenerate simplex, degenerate
faces dropped.  Coreductions with aces shrink them to a Morse complex, each
of whose boundaries gets its invariant factors from a certified echelon
basis of its column lattice (smith_normal_form), with arbitrary-precision
arithmetic; an optional checked mode fails loudly if any intermediate entry
would leave the signed 64-bit range.
"""

from __future__ import annotations

from array import array
from operator import add

from .simpset import TruncatedSimplicialSet, assert_valid, nondegenerate_list

INT64_MAX = 2**63 - 1
_CROSSCHECK_PRIME = 2**31 - 1


class SmithForm:
    """Invariant factors plus optional unimodular certificates.

    When present, left and right satisfy left * M * right == diag(factors)
    extended by zeros to the shape of M.  Without them the factors were
    certified on an echelon basis of M's column lattice (smith_normal_form).
    """

    def __init__(self, shape, factors, left=None, right=None):
        self.shape, self.factors, self.left, self.right = shape, factors, left, right

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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x*a + y*b a gcd of a and b, possibly negative."""
    if not b:
        return a, 1, 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - a // b * y


def _merge(terms, policy) -> dict[int, int]:
    """The {column: coefficient} sum of q * combo over the (q, combo) terms."""
    total: dict[int, int] = {}
    for q, combo in terms:
        for c, w in combo.items():
            total[c] = total.get(c, 0) + q * w
    _check_range(total.values(), policy)
    return {c: w for c, w in total.items() if w}


def _echelon(matrix, policy):
    """An echelon basis of the column lattice of matrix, as (vector, combo) pairs.

    The vectors have distinct leading rows, in order; each is the integer
    combination combo, a {column: coefficient} dict, of the columns.  Each
    column is cleared at the leading rows so far, top down: by a multiple of
    the basis vector where its lead divides the entry, else by a unimodular
    extended-gcd step, which shrinks the lead; a column left nonzero joins
    the basis.  Combinations stay term lists until stored: most columns clear.
    """
    basis: dict[int, tuple[list[int], dict[int, int]]] = {}
    for c, column in enumerate(zip(*matrix)):
        v, terms = list(column), [(1, {c: 1})]
        for p in range(len(v)):
            if not (b := v[p]):
                continue
            if p not in basis:
                basis[p] = (v, _merge(terms, policy))
                break
            u, combo = basis[p]
            a = u[p]
            if b % a == 0:
                q = b // a
                v = [s - q * t for s, t in zip(v, u)]
                terms.append((-q, combo))
            else:
                g, x, y = _xgcd(a, b)
                own = _merge(terms, policy)
                u2 = [x * s + y * t for s, t in zip(u, v)]
                _check_range(u2, policy)
                basis[p] = (u2, _merge([(x, combo), (y, own)], policy))
                v = [b // g * s - a // g * t for s, t in zip(u, v)]
                terms = [(b // g, combo), (-a // g, own)]
            _check_range(v, policy)
    return [basis[p] for p in sorted(basis)]


def _check_echelon(matrix, basis) -> None:
    """Raise ArithmeticError unless im matrix == span basis.

    Each basis vector must be its stated combination of the columns, and
    back-substitution on the leading rows must take every column to zero.
    """
    columns = list(zip(*matrix))
    if not all(0 <= c < len(columns) for _, combo in basis for c in combo):
        raise ArithmeticError("echelon basis: a combination names no column")
    for u, combo in basis:
        if _combine([(w, columns[c]) for c, w in combo.items()], len(matrix)) != u:
            raise ArithmeticError("echelon basis: a basis vector is not its stated combination")
    leads = [(next(i for i, x in enumerate(u) if x), u) for u, _ in basis if any(u)]
    for c, v in enumerate(columns):
        for p, u in leads:
            q, r = divmod(v[p], u[p])
            if r:
                break
            if q:
                v = [s - q * t for s, t in zip(v, u)]
        if any(v):
            raise ArithmeticError(f"echelon basis: column {c} is outside its span")


def smith_normal_form(matrix, transforms=False, policy="bigint") -> SmithForm:
    """Smith normal form over the integers of M = matrix, a list of k rows.

    With transforms=True M is reduced densely, and the result carries
    unimodular certificates.  Without them M's columns are reduced to an
    echelon basis B (_echelon), and im M = span B is certified both ways
    (_check_echelon).  Then Z^k / im M = Z^k / span B, so M and B have the
    same rank and invariant factors.  B, k x r with r <= k, is reduced
    densely and its transforms re-verified.  A failed certificate raises
    ArithmeticError.
    """
    if policy not in ("bigint", "checked"):
        raise ValueError(f"unknown overflow policy {policy!r}")
    R, C = len(matrix), len(matrix[0]) if matrix else 0
    _check_range((v for row in matrix for v in row), policy)
    if transforms:
        return _dense_snf(matrix, R, C, policy)
    basis = _echelon(matrix, policy)
    _check_echelon(matrix, basis)
    B = [[u[i] for u, _ in basis] for i in range(R)]
    sf = _dense_snf(B, R, len(basis), policy)
    if not verify_transforms(B, sf):
        raise ArithmeticError("Smith form certificate of the echelon basis failed")
    return SmithForm((R, C), sf.factors)


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


def rank_mod_p(matrix, p: int = _CROSSCHECK_PRIME) -> int:
    """Rank over F_p of matrix, a list of rows: the cross-check of the integer rank.

    Each row is reduced by the pivot rows so far and kept, scaled to a
    leading 1, if anything is left.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in matrix:
        row = [v % p for v in row]
        for c, prow in pivots:
            if f := row[c]:
                row = [(s - f * t) % p for s, t in zip(row, prow)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [v * inv % p for v in row]))
    return len(pivots)


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
    boundaries must compose to zero.  Each goes to smith_normal_form on its
    nonzero columns, which leave rank and invariant factors unchanged, and
    its rank is cross-checked over a large prime field; any failed check
    raises ArithmeticError.  The top dimension lacks the incoming boundary
    and is flagged unreliable.
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
        cols = sorted({j for row in rows for j in row})
        M = [[row.get(j, 0) for j in cols] for row in rows]
        sf = smith_normal_form(M, policy=policy)
        if rank_mod_p(M) != sf.rank:
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
