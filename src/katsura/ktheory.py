"""Exact integer linear algebra: Smith normal form, K-groups, and
realization of prescribed K-groups by a certified pair construction.

A cokernel Z^m / MZ^n is fixed up to isomorphism by the rank of M and the
entries of any diagonal matrix D = UMV with U and V unimodular: it is
Z^(m - rank) plus the sum of the Z/d.  So `k_groups` reads it off
`diagonal_form`, an elimination that keeps neither U nor V and does not
make the diagonal a divisor chain; `abelian_group` then normalizes the
cyclic orders.  The elimination runs on sparse rows while the active
block is sparse, and finishes on dense lists once it has filled in, as
Dumas, Saunders and Villard (2001) do for sparse Smith forms.
`smith_normal_form` keeps both witnesses and the divisor chain; no
command calls it, but perfbench's `snf` operation times it and the
tests check `diagonal_form` against it.

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


def _coprime_basis(numbers) -> list[int]:
    """Pairwise coprime integers > 1 over which every nonzero number factors.

    Repeated gcd splitting: a number sharing a factor g with a basis element
    b replaces b by b/g, g and itself by x/g.  The product of everything
    pending drops by g at each split, so it terminates; nothing is factored
    into primes.  (Bernstein 2005 computes the same basis in near-linear
    time.)
    """
    basis: list[int] = []
    pending = sorted({abs(x) for x in numbers})
    while pending:
        x = pending.pop()
        if x <= 1:
            continue
        for k, b in enumerate(basis):
            g = gcd(x, b)
            if g > 1:
                del basis[k]
                pending += (b // g, g, x // g)
                break
        else:
            basis.append(x)
    return basis


def _valuation(x: int, q: int) -> int:
    """Exponent of q in a nonzero x that factors over a coprime basis holding q."""
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def abelian_group(free_rank: int, cyclic_orders: list[int]) -> AbelianGroup:
    """Normalize a direct sum of cyclic summands into invariant factor form.

    The exponents are grouped per element of a coprime basis of the orders
    rather than per prime: each prime divides exactly one basis element q,
    and its exponent in every order is v_q of the order times its exponent
    in q, so both groupings give the same invariant factors.
    """
    for d in cyclic_orders:
        if d < 1:
            raise StructuralError(f"cyclic order {d} must be positive")
    by_element = {
        q: sorted((e for e in (_valuation(d, q) for d in cyclic_orders) if e), reverse=True)
        for q in _coprime_basis(cyclic_orders)
    }
    width = max((len(v) for v in by_element.values()), default=0)
    factors = []
    for k in range(width):
        f = 1
        for q, exps in by_element.items():
            if k < len(exps):
                f *= q ** exps[k]
        factors.append(f)
    chain = tuple(sorted(f for f in factors if f > 1))
    return AbelianGroup(free_rank, chain)


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
    Unless it is a unit, Euclid's algorithm on its row and the row holding
    the next smallest entry of its column first brings it down to their
    gcd.  One pass of nearest-integer quotients then clears the column,
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
                while True:
                    q = (2 * block[s][c] + p) // (2 * p)
                    block[s] = b = [y - q * x for x, y in zip(block[r], block[s])]
                    if not b[c]:
                        break
                    r, s, p = s, r, b[c]
                rest = [i for i, row in enumerate(block) if row[c] and i != r]
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
    of rows holding it.  Each pivot is an entry of smallest absolute value,
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
    over the nonempty columns, with two-row Euclid steps and
    nearest-integer quotients.  The test is O(1) per pivot; a sparse input
    reaches the dense tail only for its last few rows, a dense one at its
    first pivot.
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
    latest: dict[int, tuple] = {}

    def key(i: int) -> tuple:
        row = live[i]
        v = min(map(abs, row.values()))
        count, j = min((len(cols[j]), j) for j, x in row.items() if x == v or x == -v)
        latest[i] = k = (v, (len(row) - 1) * (count - 1), i, j)
        return k

    heap = [key(i) for i in live]
    heapify(heap)
    pivots = []
    while live:
        k = heappop(heap)
        i = k[2]
        if i not in live or latest[i] != k:
            continue  # eliminated, or changed since this key was pushed
        fresh = key(i)
        if fresh[1] > k[1]:
            heappush(heap, fresh)
            continue
        if 4 * fresh[1] >= (len(live) - 1) ** 2 and len(live) > 2:
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
