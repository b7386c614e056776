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
from bisect import bisect_right
from collections import deque
from itertools import chain, compress, count, islice, repeat
from operator import add, gt, mul, sub

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
    if not any(map(any, matrix)):
        return SmithForm((R, C), ())  # rank 0 by inspection
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


class SparseColumns:
    """One boundary, packed by column: the only form a chain complex stores.

    Column c has the entries rows[starts[c]:starts[c + 1]], with coefficients
    the same slice of values.  Packing takes one {row: coefficient} dict per
    column into uint32 rows and int8 values, 5 bytes a nonzero; a coefficient
    outside -128..127 raises OverflowError, never wraps.  (Unsigned arrays
    take Python ints several times faster than signed ones.)
    """

    def __init__(self, columns=()):
        starts, rows, values = self.starts, self.rows, self.values = array("I", [0]), array("I"), array("b")
        push, add_rows, add_values = starts.append, rows.extend, values.extend
        for column in columns:
            add_rows(column)
            add_values(column.values())
            push(len(rows))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def column(self, c: int) -> dict[int, int]:
        a, b = self.starts[c], self.starts[c + 1]
        return dict(zip(self.rows[a:b], self.values[a:b]))

    def spread(self, per_column=None):
        """Each item of per_column (default: the column ids), once per entry of its column."""
        per_column = range(len(self)) if per_column is None else per_column
        return chain.from_iterable(map(repeat, per_column, map(sub, self.starts[1:], self.starts)))


class ChainComplexData:
    """Normalized chain data: per-dimension bases and boundary columns.

    boundaries[n], a SparseColumns with one column per basis simplex of
    dimension n, maps dimension n to n-1 (None at index 0).
    """

    def __init__(self, max_dim: int, basis: list[list[int]], boundaries: list[SparseColumns | None]):
        self.max_dim, self.basis, self.boundaries = max_dim, basis, boundaries

    def basis_sizes(self) -> list[int]:
        return [len(b) for b in self.basis]


def normalized_complex(X: TruncatedSimplicialSet) -> ChainComplexData:
    """Boundary columns on nondegenerate simplices with signs (-1)^i.

    The identity audit runs first and refuses a malformed X; each column is
    then summed as a {row: coefficient} dict and packed.  The audit is the
    certificate that consecutive boundaries compose to zero (May, Simplicial
    Objects in Algebraic Topology, 1967):

    - d_i d_j = d_{j-1} d_i for i < j gives dd = 0 on all chains, by the
      usual sign cancellation.
    - For a degenerate s_j x, d_i s_j x is s_{j-1} d_i x or s_j d_{i-1} x,
      both degenerate, except at i = j and i = j + 1, where both terms are x
      with opposite signs.
    - So the degenerate simplices span a subcomplex, and the normalized
      boundary, which drops degenerate faces, is the quotient boundary.
    - A face-only X has no degenerate simplices, and the face identities
      alone suffice.

    Each identity used lies inside the truncation, where audit_identities
    checks it.  For a pullback, such as a bundle's total space, the
    certificate can be its factors' audits: an identity holds on a pair
    exactly when it holds on both coordinates (simpset.pullback).
    """
    assert_valid(X)
    basis = [nondegenerate_list(X, n) for n in range(X.max_dim + 1)]
    boundaries = [None]
    for n in range(1, X.max_dim + 1):
        below = {k: i for i, k in enumerate(basis[n - 1])}
        boundaries.append(SparseColumns(_columns(X.faces[n], basis[n], below)))
    return ChainComplexData(X.max_dim, basis, boundaries)


def _columns(faces, cells, below):
    """The boundary of each cell as a {row: coefficient} dict."""
    signs = (1, -1) * len(faces)
    for rows in zip(*(map(below.get, map(face.__getitem__, cells)) for face in faces)):
        column: dict[int, int] = {}
        for r, s in zip(rows, signs):
            if r is not None:
                if v := column.get(r, 0) + s:
                    column[r] = v
                else:
                    del column[r]
        yield column


def _composite_zero(outer: list[dict[int, int]], inner) -> None:
    """Raise ArithmeticError unless outer's columns composed with each column of inner give zero.

    Columns are {row: coefficient} dicts.  The composite is summed into a
    list of zeros, which it leaves so unless it raises.
    """
    sums = [0] * (1 + max(map(max, filter(None, outer)), default=-1))
    for column in inner:
        for r, v in column.items():
            for r2, v2 in outer[r].items():
                sums[r2] += v * v2
        for r in column:
            for r2 in outer[r]:
                if sums[r2]:
                    raise ArithmeticError("boundary of boundary is nonzero")


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


def unit_pairing(cc: ChainComplexData) -> tuple[array, array, array]:
    """Coreductions with aces: every cell of the complex, in removal order.

    A cell whose only live face has coefficient +-1 goes with that face as
    the step (n, row, col), a coreduction.  Candidates are the cells a
    removal leaves with one live face, taken from a stack.  When it runs
    dry, the first live cell of the lowest live dimension (it has no live
    face) goes alone as the step (n, -1, col), an ace (Mrozek-Batko,
    Coreduction homology algorithm, 2009).  The steps come as three flat
    arrays: the dimensions, the rows and the cols.  check_unit_pairing
    certifies them.
    """
    sizes, top, faces = cc.basis_sizes(), cc.max_dim, cc.boundaries
    cofaces = [[array("I") for _ in range(s)] for s in sizes[:-1]]
    for n in range(1, top + 1):
        B = faces[n]
        deque(map(array.append, map(cofaces[n - 1].__getitem__, B.rows), B.spread()), 0)
    live = [[0] * sizes[0]] + [list(map(sub, B.starts[1:], B.starts)) for B in faces[1:]]
    dead = [bytearray(s) for s in sizes]
    stack, steps = [], array("I")  # (n, row, col) per step, an ace's row -1 stored as 2**32 - 1

    def remove(m, j):
        dead[m][j] = 1
        if m < top:
            gone, alive = dead[m + 1], live[m + 1]
            for k in cofaces[m][j]:
                if not gone[k]:
                    alive[k] -= 1
                    if alive[k] == 1:
                        stack.append((m + 1, k))

    n = k = 0
    while n <= top:
        while stack:
            m, c = stack.pop()
            if dead[m][c] or live[m][c] != 1:
                continue
            B, gone = faces[m], dead[m - 1]
            j = next(j for j in range(B.starts[c], B.starts[c + 1]) if not gone[B.rows[j]])
            if B.values[j] in (1, -1):
                steps.extend((m, B.rows[j], c))
                remove(m - 1, B.rows[j])
                remove(m, c)
        # every cell below dimension n, and below k in dimension n, is dead
        if k == sizes[n]:
            n, k = n + 1, 0
        elif dead[n][k]:
            k += 1
        else:
            steps.extend((n, 2**32 - 1, k))
            remove(n, k)
    return steps[0::3], array("i", steps[1::3].tobytes()), steps[2::3]


def check_unit_pairing(cc: ChainComplexData, order) -> None:
    """Certify a removal order of coreductions with aces; raise ArithmeticError if not.

    order is unit_pairing's three arrays.  Each step is a pair (n, row, col)
    on a +-1 entry of boundary n, or an ace (n, -1, col).  Every cell goes
    exactly once, and each face of a pair's col other than its row, and of
    an ace, goes at an earlier step.  The steps then fall along every
    gradient path, so the pairs are an acyclic matching whose critical cells
    are the aces.  Costs O(nnz).
    """
    sizes, dims, rows = cc.basis_sizes(), order[0], order[1]
    steps = [[-1] * s for s in sizes]
    for t, (n, r, c) in enumerate(zip(*order)):
        cells = sizes[n] if 0 <= n <= cc.max_dim else 0
        if not 0 <= c < cells or r != -1 and (n == 0 or cc.boundaries[n].column(c).get(r) not in (1, -1)):
            raise ArithmeticError(f"unit pairing: step {t} is not a cell, or not a +-1 entry of a boundary")
        for m, k in ((n, c),) if r == -1 else ((n - 1, r), (n, c)):
            if steps[m][k] != -1:
                raise ArithmeticError(f"unit pairing: cell {k} of dimension {m} is used twice")
            steps[m][k] = t
    for n, level in enumerate(steps):
        if -1 in level:
            raise ArithmeticError(f"unit pairing: cell {level.index(-1)} of dimension {n} is never removed")
    for n in range(1, cc.max_dim + 1):
        B, below, own = cc.boundaries[n], steps[n - 1], steps[n]
        # the col of step t outlives each face but its partner, which goes at t itself; a cell
        # that goes as a partner row is bounded by no step
        last = (t if dims[t] == n else len(dims) for t in own)
        bad = next(compress(count(), map(gt, map(below.__getitem__, B.rows), B.spread(last))), None)
        if bad is not None:
            t = own[bisect_right(B.starts, bad) - 1]
            fault = f"ace {t} still has a live face" if rows[t] == -1 else f"pair {t} is not acyclic"
            raise ArithmeticError(f"unit pairing: {fault}")


def _morse_rows(columns, pairs, rows, cols, policy) -> list[dict[int, int]]:
    """The rows of a Morse boundary, by coflow; row i is {j: entry}.

    columns is boundary n, pairs its (row, col) pairs in removal order as
    two arrays, rows and cols the critical cells of dimensions n - 1 and n.
    For critical e, phi(e) = 1 and, pair by pair, phi(r) = -eps * sum of
    boundary(c)_r' * phi(r') over the faces r' != r of c, eps =
    boundary(c)_r; other cells have phi 0.  Entry (e, c) is then the sum of
    boundary(c)_r * phi(r): the gradient paths from c to e (Forman, Morse
    theory for cell complexes).
    """
    starts, entries, values = columns.starts, columns.rows, columns.values
    out = []
    for e in rows:
        phi = {e: 1}
        for r, c in zip(*pairs):
            a, b = starts[c], starts[c + 1]
            if s := sum(map(mul, values[a:b], map(phi.get, entries[a:b], repeat(0)))):
                phi[r] = -values[entries.index(r, a, b)] * s
        _check_range(phi.values(), policy)
        products = map(mul, values, map(phi.get, entries, repeat(0)))
        sums = list(map(sum, map(islice, repeat(products), map(sub, starts[1:], starts))))
        out.append({j: s for j, c in enumerate(cols) if (s := sums[c])})
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
    critical, pairs = [array("I") for _ in range(top + 1)], [(array("I"), array("I")) for _ in range(top + 1)]
    for n, r, c in zip(*order):
        if r == -1:
            critical[n].append(c)
        else:
            pairs[n][0].append(r)
            pairs[n][1].append(c)
    ranks, factors, below = [0] * (top + 2), [()] * (top + 2), []
    for n in range(1, top + 1):
        rows = _morse_rows(cc.boundaries[n], pairs[n], critical[n - 1], critical[n], policy)
        # the rows of a boundary are the columns of its coboundary
        _composite_zero(rows, below)
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


def export_sparse_matrix(columns: SparseColumns, rows: int) -> str:
    """Triplet text: a 'dims R C' header, then one 'row col value' per entry, sorted."""
    lines = [f"dims {rows} {len(columns)}"]
    for r, c, v in sorted(zip(columns.rows, columns.spread(), columns.values)):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"
