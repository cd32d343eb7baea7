"""Exact integer linear algebra: Smith normal form, K-groups, and
realization of prescribed K-groups by a certified pair construction.

A cokernel Z^m / MZ^n is fixed up to isomorphism by the rank of M and the
entries of any diagonal matrix D = UMV with U and V unimodular: it is
Z^(m - rank) plus the sum of the Z/d.  So `k_groups` reads it off
`diagonal_form`, an elimination that keeps neither U nor V and does not
make the diagonal a divisor chain; `abelian_group` then normalizes the
cyclic orders by gcd and lcm.  The elimination first removes, in one
sweep, every unit pivot whose row or column holds at most one other
entry, each of which lowers the nonzero count (the singleton and
doubleton presolve of sparse elimination).  It then runs on sparse rows
while the active block is sparse, and finishes on dense lists once it
has filled in, as Dumas, Saunders and Villard (2001) do for sparse Smith
forms.
`smith_normal_form` keeps both witnesses and the divisor chain; no
command calls it and `katsura` does not export it, but perfbench's `snf`
operation times it and the tests check `diagonal_form` against it.

Everything is plain Python integers; no precision limits apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .errors import (
    LETTER_BUDGET,
    CertificationError,
    DomainError,
    StructuralError,
    UnrealizableWithSquareMatrices,
    format_int,
)
from .matrices import MatrixPair, graph_facts

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ m @ v = d with u, v unimodular and d diagonal, nonnegative,
    each entry dividing the next."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0])))]


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Diagonalize by unimodular row/column operations.

    Pivot rule: the entry of smallest nonzero absolute value in the working
    block, ties broken row-major, which makes the reduction deterministic.
    """
    if not m or not m[0]:
        raise StructuralError("matrix must be nonempty")
    rows, cols = len(m), len(m[0])
    if any(len(row) != cols for row in m):
        raise StructuralError("ragged matrix")
    a = [list(row) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i: int, k: int, q: int) -> None:  # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j: int, k: int, q: int) -> None:  # col j -= q * col k
        for row in (a, v):
            for r in row:
                r[j] -= q * r[k]

    def swap_rows(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in (a, v):
            for r in row:
                r[j], r[k] = r[k], r[j]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for s in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(s, rows):
                for j in range(s, cols):
                    x = abs(a[i][j])
                    if x and (pivot is None or x < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != s:
                swap_rows(s, pi)
            if pj != s:
                swap_cols(s, pj)
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s]:
                    row_op(i, s, a[i][s] // a[s][s])
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, cols):
                if a[s][j]:
                    col_op(j, s, a[s][j] // a[s][s])
                    dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)  # fold the offending row into the pivot row
        if a[s][s] < 0:
            negate_row(s)

    def freeze(mm):
        return tuple(tuple(row) for row in mm)

    return SmithDecomposition(freeze(u), freeze(a), freeze(v))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant factor form:
    Z^free_rank + Z/d_1 + ... with 2 <= d_1 | d_2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise StructuralError("free rank must be nonnegative")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise StructuralError(f"torsion {self.torsion} is not a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise StructuralError("invariant factors must be >= 2")


def abelian_group(free_rank: int, cyclic_orders: list[int]) -> AbelianGroup:
    """Normalize a direct sum of cyclic summands into invariant factor form.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so each order is inserted into
    the divisor chain from the top: the factor becomes its lcm with the
    order, and their gcd moves down to the next factor, until it divides
    the smallest factor (then it divides every factor left, which keeps
    its value) or passes the bottom.  The chain stays a chain: each new
    factor divides the old one above it.  Nothing is factored.
    """
    for d in cyclic_orders:
        if d < 1:
            raise StructuralError(f"cyclic order {d} must be positive")
    chain: list[int] = []  # the invariant factors, largest first
    for c in cyclic_orders:
        for k, d in enumerate(chain):
            if chain[-1] % c == 0:  # c divides every factor from here down, so none moves
                break
            g = gcd(c, d)
            chain[k] = d // g * c
            c = g
        if c > 1:
            chain.append(c)
    return AbelianGroup(free_rank, tuple(reversed(chain)))


def _subtract_row(live: dict, cols: dict, i: int, r: int, q: int) -> None:
    """Row i -= q * row r, keeping the column index sets; a row that
    becomes zero leaves the matrix."""
    row = live[i]
    for j, x in live[r].items():
        y = row.get(j)
        if y is None:
            row[j] = -q * x
            cols[j].add(i)
            continue
        y -= q * x
        if y:
            row[j] = y
        else:
            del row[j]
            cols[j].discard(i)
    if not row:
        del live[i]


def _sweep(live: dict, cols: dict) -> int:
    """Eliminate every unit pivot whose row or column holds at most one
    other entry, returning how many it eliminated.

    Row operations clear the pivot's column, and then column operations
    clear its row without changing any other, so the pivot's row and
    column leave the matrix.  If the column held one other entry, that row
    gains at most the pivot row's other entries; if the row held one other
    entry, each cleared row gains at most that one.  Either way the nonzero
    count falls, by at least 2 unless the pivot was alone in its row and its
    column, so there is no fill-in to weigh and no Euclid step to take.
    Rows that change, and rows in a column left with at most two entries,
    are checked again.  Columns left empty are dropped.
    """
    count = 0
    work = set(live)
    while work:
        r = work.pop()
        row = live.get(r)
        if row is None:
            continue
        short = len(row) <= 2
        for c, p in row.items():
            if (p == 1 or p == -1) and (short or len(cols[c]) <= 2):
                break
        else:
            continue
        count += 1
        del row[c]
        for i in cols.pop(c):
            if i != r:
                _subtract_row(live, cols, i, r, live[i].pop(c) * p)
                work.add(i)
        del live[r]
        for j in row:
            col = cols[j]
            col.discard(r)
            if not col:
                del cols[j]
            elif len(col) <= 2:
                work |= col
    return count


def _settle(live: dict, cols: dict, r: int, c: int, touched: set) -> int:
    """Eliminate the pivot at (r, c), returning its absolute value.

    Row operations clear the pivot's column and column operations its row;
    once the column holds the pivot alone, a column operation changes the
    pivot's row and nothing else.  Each pass leaves remainders smaller than
    the pivot, and the pivot moves to the smallest of them, so the pivot
    shrinks until both are clear: Euclid's algorithm on a row and a column
    at once.  Every row changed on the way goes into `touched`.
    """
    while True:
        p = live[r][c]
        for i in list(cols[c]):
            if i != r:
                q = live[i][c] // p
                if q:
                    _subtract_row(live, cols, i, r, q)
                    touched.add(i)
        if len(cols[c]) > 1:
            r = min(cols[c], key=lambda i: abs(live[i][c]))
            continue
        row = live[r]
        for j in list(row):
            if j != c:
                y = row[j] % p
                if y:
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(r)
                    if not cols[j]:
                        del cols[j]
        if len(row) > 1:
            touched.add(r)
            c = min((j for j in row if j != c), key=lambda j: abs(row[j]))
            continue
        del live[r], cols[c]
        return abs(p)


def _dense_tail(live: dict, cols: dict) -> list[int]:
    """Finish the elimination of the live rows as a dense block, returning
    the absolute values of its pivots.

    The rows become lists over the nonempty columns, so a row operation is
    one pass of list arithmetic, with no dict lookups and no index sets.
    Each pivot starts at an entry of smallest absolute value in the block.
    Unless it divides the next smallest entry x of its column, one
    extended-gcd step on its row r and that entry's row s first brings it
    down to g = gcd(p, x): with u = (p/g)^-1 mod |x/g| and w = (g - u p)/x,
    the rows become u r + w s and (x/g) r - (p/g) s, a unimodular change
    (determinant -1) that leaves g at the pivot and 0 below it.  One pass
    of nearest-integer quotients then clears the column,
    leaving remainders of at most half the pivot.  As in `_settle`, the
    pivot moves to the smallest remainder while one is left; once the
    column is clear, the pivot row is reduced by symmetric remainders
    (column operations that change that row alone), and the pivot moves
    along the row while an entry is left there.
    """
    block = [[row.get(j, 0) for j in cols] for row in live.values()]
    pivots = []
    while block:
        v = min(min(map(abs, filter(None, row))) for row in block)
        r = next(i for i, row in enumerate(block) if v in row or -v in row)
        c = block[r].index(v) if v in block[r] else block[r].index(-v)
        while True:
            p = block[r][c]
            rest = [i for i, row in enumerate(block) if row[c] and i != r]
            if rest and p not in (1, -1):
                s = min(rest, key=lambda i: abs(block[i][c]))
                x = block[s][c]
                if x % p:
                    g = gcd(p, x)
                    u = pow(p // g, -1, abs(x // g))
                    w = (g - u * p) // x
                    a, b = block[r], block[s]
                    block[r] = [u * y + w * z for y, z in zip(a, b)]
                    block[s] = [x // g * y - p // g * z for y, z in zip(a, b)]  # zero at c
                    rest.remove(s)
                    p = g
            a = block[r]
            for i in rest:
                q = (2 * block[i][c] + p) // (2 * p)
                if q:
                    block[i] = [y - q * x for x, y in zip(a, block[i])]
            rest = [i for i in rest if block[i][c]]
            if rest:
                r = min(rest, key=lambda i: abs(block[i][c]))
                continue
            a = [y - (2 * y + p) // (2 * p) * p for y in a]  # zero at c, since q = 1 there
            if any(a):
                w = min(map(abs, filter(None, a)))
                a[c] = p
                block[r] = a
                c = a.index(w) if w in a else a.index(-w)
                continue
            pivots.append(abs(p))
            del block[r]
            for row in block:
                del row[c]
            block = [row for row in block if any(row)]
            break
    return pivots


def diagonal_form(rows: Sequence[Mapping[int, int]]) -> tuple[int, list[int]]:
    """The rank deficiency and the nonzero diagonal of a matrix equivalent
    to the given one under unimodular row and column operations.

    `rows` holds the matrix row by row, each row a mapping from column
    index to entry; zero entries may be left out.  The answer is
    (number of rows - rank, absolute values of the nonzero pivots), so the
    cokernel is Z^zeros plus the sum of the Z/pivot; for a square matrix
    the first number is the count of zeros on the diagonal.  Neither the
    unimodular transforms nor the divisor chain of the Smith form is kept.

    The matrix is stored as sparse rows plus, per nonempty column, the set
    of rows holding it.  `_sweep` first eliminates every unit pivot whose
    row or column holds at most one other entry.  Each such pivot lowers
    the nonzero count, so the sweep takes at most nnz pivots and needs no
    key and no Euclid step; on a cycle with chords it leaves a handful of
    rows, and on a dense block it finds nothing.

    What is left is eliminated by pivots of smallest absolute value,
    ties going to the smallest Markowitz cost (row count - 1) * (column
    count - 1), which keeps fill-in low on sparse input.  A heap holds one
    key per row, its smallest entry and that entry's cost, recomputed
    whenever the row changes.  Column counts also move when other rows
    change, so a key that comes up has its cost refreshed and goes back if
    the cost rose: the smallest entry is exact, its cost as current as the
    keys are.

    The next pivot's cost also tells when the block has filled in: with
    more than two live rows left, 4 * cost >= (live rows - 1)^2 says that
    the pivot's row and column, by their geometric mean, reach about half
    the live rows.  Then `_dense_tail` finishes the elimination on lists
    over the nonempty columns, with extended-gcd steps and nearest-integer
    quotients.  The test is O(1) per pivot; a sparse input reaches the
    dense tail only for its last few rows, a dense one at its first pivot.
    No pivot costs less than (shortest row - 1) * (shortest column - 1), so
    when that bound already passes the test, which takes one O(nnz) scan,
    the block goes to the dense tail before any key is computed.
    """
    from heapq import heapify, heappop, heappush  # here, to keep it off the import path

    live: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        row = {j: x for j, x in row.items() if x}
        if row:
            live[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    pivots = [1] * _sweep(live, cols)

    def filled(cost: int) -> bool:
        return 4 * cost >= (len(live) - 1) ** 2 and len(live) > 2

    if live and filled((min(map(len, live.values())) - 1) * (min(map(len, cols.values())) - 1)):
        pivots += _dense_tail(live, cols)  # no pivot costs less, so the first would go there
        return len(rows) - len(pivots), pivots
    latest: dict[int, tuple] = {}

    def key(i: int) -> tuple:
        row = live[i]
        v = min(map(abs, row.values()))
        count, j = min((len(cols[j]), j) for j, x in row.items() if x == v or x == -v)
        latest[i] = k = (v, (len(row) - 1) * (count - 1), i, j)
        return k

    heap = [key(i) for i in live]
    heapify(heap)
    while live:
        k = heappop(heap)
        i = k[2]
        if i not in live or latest[i] != k:
            continue  # eliminated, or changed since this key was pushed
        fresh = key(i)
        if fresh[1] > k[1]:
            heappush(heap, fresh)
            continue
        if filled(fresh[1]):
            pivots += _dense_tail(live, cols)
            break
        touched: set[int] = set()
        pivots.append(_settle(live, cols, i, fresh[3], touched))
        for i in touched & live.keys():
            heappush(heap, key(i))
    return len(rows) - len(pivots), pivots


@dataclass(frozen=True)
class KTheoryResult:
    k0: AbelianGroup
    k1: AbelianGroup


def k_groups(pair: MatrixPair) -> KTheoryResult:
    """K_0 = coker(I-A) + ker(I-B),  K_1 = coker(I-B) + ker(I-A).

    One diagonal form per matrix: I - A and I - B are square, so the rank of
    each kernel is the free rank of the same matrix's cokernel (the zeros on
    its diagonal).  Both matrices are built sparse from the row sections,
    since B is supported inside the support of A."""

    def identity_minus(m: tuple[tuple[int, ...], ...]) -> list[dict[int, int]]:
        return [
            {**{j - 1: -row[j - 1] for j in section}, i: 1 - row[i]}
            for i, (row, section) in enumerate(zip(m, pair.sections))
        ]

    ca = abelian_group(*diagonal_form(identity_minus(pair.a)))
    cb = abelian_group(*diagonal_form(identity_minus(pair.b)))
    free = ca.free_rank + cb.free_rank
    return KTheoryResult(k0=AbelianGroup(free, ca.torsion), k1=AbelianGroup(free, cb.torsion))


@dataclass(frozen=True)
class Realization:
    pair: MatrixPair
    result: KTheoryResult
    condition_e: bool
    irreducible: bool
    diagonal_conditions: bool  # A[i][i] >= 2 and B[i][i] = 1 for all i


def _cumulative_transform(diag: list[int], negate: bool) -> Matrix:
    """L @ diag(d) @ L^T for the all-ones lower triangle L, optionally negated:
    entry (i, j) is the partial sum of d up to min(i, j).  Unimodular on both
    sides, so cokernel and kernel are preserved."""
    n = len(diag)
    sums = []
    acc = 0
    for d in diag:
        acc += d
        sums.append(acc)
    sign = -1 if negate else 1
    return [[sign * sums[min(i, j)] for j in range(n)] for i in range(n)]


def realize(g0: AbelianGroup, g1: AbelianGroup) -> Realization:
    """Produce a pair (A, B) whose K-groups are exactly (g0, g1), with B
    nonzero on the full support of A, A irreducible, and A[i][i] >= 2,
    B[i][i] = 1.  All four clauses are re-verified before returning.

    Square matrices force equal free ranks of the two K-groups, so
    mismatched inputs are rejected up front, as is a pair of more than
    LETTER_BUDGET entries.
    """
    if g0.free_rank != g1.free_rank:
        raise UnrealizableWithSquareMatrices(
            f"free ranks differ ({format_int(g0.free_rank)} vs {format_int(g1.free_rank)}); "
            "square matrices force them equal"
        )
    half = max(len(g0.torsion) + g0.free_rank, len(g1.torsion), 1)
    if not g0.torsion and g0.free_rank == half and half >= 2:
        half += 1  # avoid the all-zero target, which no unimodular move can densify
    if (2 * half) ** 2 > LETTER_BUDGET:
        raise DomainError(
            f"the realizing pair would have more than {LETTER_BUDGET} matrix entries,"
            " the letter budget for an answer"
        )

    diag_a = list(g0.torsion) + [1] * (half - len(g0.torsion) - g0.free_rank) + [0] * g0.free_rank
    diag_b = list(g1.torsion) + [1] * (half - len(g1.torsion))
    m_a = _cumulative_transform(diag_a, negate=True)
    c = _cumulative_transform(diag_b, negate=False)

    a = [[0] * (2 * half) for _ in range(2 * half)]
    b = [[0] * (2 * half) for _ in range(2 * half)]
    for i in range(half):
        a[i][i] = 2
        a[half + i][half + i] = 2
        a[half + i][i] = 1
        b[i][i] = 1
        b[half + i][half + i] = 1
        b[half + i][i] = 1
        for j in range(half):
            a[i][half + j] = (1 if i == j else 0) - m_a[i][j]
            b[i][half + j] = c[i][j]

    pair = MatrixPair.from_rows(a, b)
    result = k_groups(pair)
    facts = graph_facts(pair)
    cert = Realization(
        pair=pair,
        result=result,
        condition_e=facts.condition_e,
        irreducible=facts.irreducible,
        diagonal_conditions=all(
            pair.a_at(i, i) >= 2 and pair.b_at(i, i) == 1 for i in pair.vertices
        ),
    )
    if result.k0 != g0 or result.k1 != g1:
        raise CertificationError(
            f"constructed pair has K-groups {result}, expected ({g0}, {g1}); A={a} B={b}"
        )
    if not (cert.condition_e and cert.irreducible and cert.diagonal_conditions):
        raise CertificationError(f"constructed pair violates a structural clause: {cert}")
    return cert
