import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from katsura import ktheory
from katsura.errors import StructuralError, UnrealizableWithSquareMatrices
from katsura.ktheory import (
    AbelianGroup,
    KTheoryResult,
    abelian_group,
    diagonal_form,
    k_groups,
    realize,
    smith_normal_form,
)
from katsura.matrices import MatrixPair

from conftest import cycle_with_chords, random_pair
from oracles import cokernel, mat_mul, rank_det_mod, smith_group


def cofactor_det(m):
    """Independent determinant by Laplace expansion (tests only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def rational_rank(m):
    """Independent rank by Gaussian elimination over the rationals (tests only)."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_snf(m):
    dec = smith_normal_form(m)
    u = [list(r) for r in dec.u]
    v = [list(r) for r in dec.v]
    d = [list(r) for r in dec.d]
    assert mat_mul(mat_mul(u, [list(r) for r in m]), v) == d
    assert abs(cofactor_det(u)) == 1
    assert abs(cofactor_det(v)) == 1
    diag = dec.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    return dec


class TestSmithNormalForm:
    def test_swap_matrix(self):
        assert smith_normal_form([[0, -1], [-1, 0]]).diagonal() == [1, 1]

    def test_rank_one(self):
        assert smith_normal_form([[-1, -1], [-1, -1]]).diagonal() == [1, 0]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).diagonal() == [0, 0]

    def test_divisibility_example(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal() == [1, 6]

    def test_rectangular(self):
        check_snf([[2, 4, 4]])
        check_snf([[2], [4], [4]])

    def test_ragged_rejected(self):
        with pytest.raises(StructuralError):
            smith_normal_form([[1, 2], [3]])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-10, 10), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_properties_random(self, m):
        dec = check_snf(m)
        det = cofactor_det(m)
        if det != 0:
            order = 1
            for x in dec.diagonal():
                order *= x
            assert order == abs(det)


class TestAbelianGroups:
    def test_normalization_combines_coprime(self):
        assert abelian_group(0, [2, 3]) == AbelianGroup(0, (6,))

    def test_normalization_keeps_chain(self):
        assert abelian_group(1, [2, 6]) == AbelianGroup(1, (2, 6))

    def test_primary_to_invariant(self):
        assert abelian_group(0, [4, 2, 3, 9]) == AbelianGroup(0, (6, 36))

    def test_trivial_summands_dropped(self):
        assert abelian_group(2, [1, 1]) == AbelianGroup(2, ())

    def test_bad_chain_rejected(self):
        with pytest.raises(StructuralError):
            AbelianGroup(0, (4, 6))

    def test_against_prime_factorization(self):
        def invariant_factors(orders):
            # primary decomposition by trial division, then invariant factors
            by_prime = {}
            for d in orders:
                p = 2
                while d > 1:
                    e = 0
                    while d % p == 0:
                        d //= p
                        e += 1
                    if e:
                        by_prime.setdefault(p, []).append(e)
                    p += 1
            width = max((len(v) for v in by_prime.values()), default=0)
            factors = []
            for k in range(width):
                f = 1
                for p, exps in by_prime.items():
                    exps = sorted(exps, reverse=True)
                    if k < len(exps):
                        f *= p ** exps[k]
                factors.append(f)
            return tuple(sorted(f for f in factors if f > 1))

        rng = random.Random(63)
        for _ in range(2000):
            orders = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 30, 36, 49, 60, 72, 97, 210, 1024))
                      * rng.randint(1, 40) for _ in range(rng.randint(0, 6))]
            free = rng.randint(0, 2)
            assert abelian_group(free, orders) == AbelianGroup(free, invariant_factors(orders)), orders

    def test_rejects_nonpositive_order(self):
        with pytest.raises(StructuralError, match="cyclic order 0"):
            abelian_group(0, [2, 0])


def i_minus(m):
    return [[(1 if i == j else 0) - m[i][j] for j in range(len(m))] for i in range(len(m))]


class TestKGroups:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cuntz_algebras(self, n):
        pair = MatrixPair.from_rows([[n]], [[0]])
        kt = k_groups(pair)
        expected = AbelianGroup(0, (n - 1,)) if n > 2 else AbelianGroup(0, ())
        assert kt.k0 == expected
        assert kt.k1 == AbelianGroup(0, ())

    def test_free_parts(self):
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])
        kt = k_groups(pair)
        assert kt.k0 == AbelianGroup(1, ())
        assert kt.k1 == AbelianGroup(1, ())

    def test_torsion_from_determinant(self):
        pair = MatrixPair.from_rows([[2, 3], [1, 2]], [[1, 1], [1, 1]])
        kt = k_groups(pair)
        assert kt.k0 == AbelianGroup(0, (2,))
        assert kt.k1 == AbelianGroup(0, ())

    def test_free_ranks_always_match(self):
        rng = random.Random(61)
        from conftest import random_pair

        for _ in range(150):
            pair = random_pair(rng, n_max=4, a_max=3)
            kt = k_groups(pair)
            assert kt.k0.free_rank == kt.k1.free_rank

    def test_order_equals_determinant(self):
        rng = random.Random(62)
        from conftest import random_pair

        for _ in range(100):
            pair = random_pair(rng, n_max=4, a_max=3)
            ia = i_minus(pair.a)
            det = cofactor_det(ia)
            coker = cokernel(ia)
            if det != 0:
                order = 1
                for d in coker.torsion:
                    order *= d
                assert coker.free_rank == 0
                assert order == abs(det)
            else:
                assert coker.free_rank == pair.n - rational_rank(ia) > 0

    def test_one_smith_form_per_matrix(self):
        # the kernel ranks read off the cokernels agree with separate
        # eliminations, on singular I - A or I - B with negative B-entries
        rng = random.Random(64)
        from conftest import random_pair

        checked = 0
        for _ in range(600):
            pair = random_pair(rng, n_max=4, a_max=2, b_max=3)
            ia, ib = i_minus(pair.a), i_minus(pair.b)
            if cofactor_det(ia) and cofactor_det(ib):
                continue
            checked += 1
            ka = pair.n - sum(1 for d in smith_normal_form(ia).diagonal() if d)
            kb = pair.n - sum(1 for d in smith_normal_form(ib).diagonal() if d)
            ca, cb = cokernel(ia), cokernel(ib)
            expected = KTheoryResult(
                k0=AbelianGroup(ca.free_rank + kb, ca.torsion),
                k1=AbelianGroup(cb.free_rank + ka, cb.torsion),
            )
            assert k_groups(pair) == expected, pair
        assert checked >= 100


def sparse_rows(m):
    return [dict(enumerate(row)) for row in m]


def random_square(rng, kind):
    """A square matrix of size at most 8 of the given kind."""
    if kind == "pair":
        pair = random_pair(rng, n_max=8)
        return i_minus(rng.choice((pair.a, pair.b)))
    n = rng.randint(1, 8)
    density = {"dense": 1.0, "sparse": 0.25, "large": 0.8, "zero-lines": 0.7, "all-zero": 0.0}[kind]
    bound = 10**6 if kind == "large" else 9
    m = [
        [rng.choice((-1, 1)) * rng.randint(1, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    if kind == "zero-lines":
        r, c = rng.randrange(n), rng.randrange(n)
        m[r] = [0] * n
        for row in m:
            row[c] = 0
    return m


KINDS = ("dense", "sparse", "zero-lines", "all-zero", "large", "pair")


def dense_block(rng, rows, cols, entry):
    """A rows x cols matrix of entries drawn by `entry`, with a few rows
    scaled by 2 or 3 for torsion and, when there are two rows to add, at
    random a last row that is the sum of two others, for a rank deficiency."""
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), min(rows, 3)):
        f = rng.choice((2, 3))
        m[i] = [f * x for x in m[i]]
    if rows > 2 and rng.random() < 0.5:
        i, j = rng.sample(range(rows - 1), 2)
        m[-1] = [x + y for x, y in zip(m[i], m[j])]
    return m


def banded_with_dense_lines(rng, n, lines):
    """A tridiagonal matrix, sparse enough to eliminate row by row, crossed
    by `lines` dense rows and as many dense columns, which fill it in."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(i - 1, 0), min(i + 2, n)):
            m[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    for k in rng.sample(range(n), lines):
        m[k] = [rng.randint(-9, 9) for _ in range(n)]
        for row in m:
            row[k] = rng.randint(-9, 9)
    return m


@pytest.fixture
def tail_rows(monkeypatch):
    """The number of live rows handed to the dense tail, one per call."""
    seen = []
    tail = ktheory._dense_tail

    def counting(live, cols):
        seen.append(len(live))
        return tail(live, cols)

    monkeypatch.setattr(ktheory, "_dense_tail", counting)
    return seen


class TestDiagonalForm:
    def test_matches_smith_form(self):
        rng = random.Random(65)
        seen = dict.fromkeys(KINDS, 0)
        for k in range(1200):
            kind = KINDS[k % len(KINDS)]
            m = random_square(rng, kind)
            assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), (kind, m)
            n, nonzero = len(m), sum(map(bool, sum(m, [])))
            seen["dense"] += n >= 3 and nonzero == n * n
            seen["sparse"] += n >= 4 and 0 < 3 * nonzero <= n * n
            seen["zero-lines"] += n >= 2 and not all(map(any, m)) and not all(map(any, zip(*m))) and nonzero > 0
            seen["all-zero"] += nonzero == 0
            seen["large"] += any(abs(x) >= 10**5 for row in m for x in row)
            seen["pair"] += kind == "pair"
        assert all(count >= 100 for count in seen.values()), seen

    def test_zeros_and_pivots(self):
        assert diagonal_form([{0: 2, 1: 4}, {0: 4, 1: 2}]) == (0, [2, 6])
        assert diagonal_form([{0: 0}, {}]) == (2, [])
        assert diagonal_form([{0: 2, 1: 4, 2: 4}]) == (0, [2])
        assert diagonal_form([{0: 2}, {0: 4}, {0: 4}]) == (2, [2])

    def test_input_rows_untouched(self, tail_rows):
        rows = [{0: 3, 1: 1}, {0: 1, 1: 3}]
        diagonal_form(rows)
        assert rows == [{0: 3, 1: 1}, {0: 1, 1: 3}]
        # a dense 6 x 6 goes through the dense tail's list copies
        dense = [{j: (i + 2) * (j + 3) % 7 - 3 or 5 for j in range(6)} for i in range(6)]
        before = [dict(row) for row in dense]
        diagonal_form(dense)
        assert tail_rows == [6]
        assert dense == before

    def test_dense_squares_reach_the_tail(self, tail_rows):
        rng = random.Random(66)
        cases = [(n, lambda: rng.randint(-9, 9)) for n in (12, 15, 18, 21, 24, 27, 30)]
        cases += [(n, lambda: rng.choice((-1, 1)) * rng.randint(10**6 - 999, 10**6 + 999)) for n in (12, 16, 20)]
        for n, entry in cases:
            m = dense_block(rng, n, n, entry)
            assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), m
        assert len(tail_rows) == len(cases)

    def test_rectangular_blocks_reach_the_tail(self, tail_rows):
        rng = random.Random(67)
        shapes = [(8, 20), (22, 12), (13, 24), (24, 13), (6, 30), (18, 11)]
        for rows, cols in shapes:
            m = dense_block(rng, rows, cols, lambda: rng.randint(-9, 9) if rng.random() < 0.8 else 0)
            m[rng.randrange(rows)] = [0] * cols
            c = rng.randrange(cols)
            for row in m:
                row[c] = 0
            assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), m
        assert len(tail_rows) == len(shapes)

    @pytest.mark.parametrize("n, lines", [(30, 3), (40, 2), (40, 4), (60, 6)])
    def test_switch_part_way(self, tail_rows, n, lines):
        m = banded_with_dense_lines(random.Random(n + lines), n, lines)
        assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), m
        assert len(tail_rows) == 1 and 2 < tail_rows[0] < n

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_phase_keeps_sparse_pairs(self, tail_rows, seed):
        # the perfbench sparse_pair shape: a 300-cycle plus 37 chords; the
        # sparse phase eliminates all but at most 15 (5 %) of its rows
        pair = cycle_with_chords(random.Random(seed), 300, 300 // 8)
        diagonal_form(sparse_rows(i_minus(pair.a)))
        assert all(rows <= 15 for rows in tail_rows), tail_rows

    def test_dense_matrix_enters_the_tail_whole(self, tail_rows):
        rng = random.Random(68)
        m = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(20)] for _ in range(20)]
        assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m)
        assert tail_rows == [20]

    @pytest.mark.parametrize("n", [100, 200])
    def test_sparse_cycle_with_chords(self, n):
        pair = cycle_with_chords(random.Random(n), n, n // 8)
        ia, ib = i_minus(pair.a), i_minus(pair.b)
        ca, cb = smith_group(ia), smith_group(ib)
        assert cokernel(ia) == ca and cokernel(ib) == cb
        free = ca.free_rank + cb.free_rank
        assert k_groups(pair) == KTheoryResult(AbelianGroup(free, ca.torsion), AbelianGroup(free, cb.torsion))

    def test_realized_pair(self):
        g = AbelianGroup(40, (2, 30))  # Z^40 + Z/6 + Z/10
        pair = realize(g, g).pair
        assert pair.n == 84
        assert cokernel(i_minus(pair.a)) == smith_group(i_minus(pair.a))
        assert cokernel(i_minus(pair.b)) == smith_group(i_minus(pair.b))

    def test_scaling_1100_vertices(self):
        # the witness-carrying Smith form ran for over a minute on this family at N = 1100
        n, p = 1100, 2**61 - 1
        pair = cycle_with_chords(random.Random(1100), n, n // 8, reach=4)
        start = time.perf_counter()
        kt = k_groups(pair)
        assert time.perf_counter() - start < 20
        free = 0
        for group, m in ((kt.k0, pair.a), (kt.k1, pair.b)):
            rank, det = rank_det_mod(sparse_rows(i_minus(m)), p)
            free += n - rank
            assert rank == n  # both matrices are invertible over Q, so the orders are checked
            order = 1
            for d in group.torsion:
                order *= d
            assert order % p in (det, -det % p)
        assert kt.k0.free_rank == kt.k1.free_rank == free


def live_and_cols(rows):
    """The sparse rows and column index sets that `diagonal_form` works on."""
    live = {i: {j: x for j, x in row.items() if x} for i, row in enumerate(rows)}
    live = {i: row for i, row in live.items() if row}
    cols = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    return live, cols


@st.composite
def unit_heavy_blocks(draw):
    """A block of up to 9 x 9, mostly units, at a density drawn for the block."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.sampled_from((0,) * draw(st.integers(0, 12)) + (1, -1, 1, -1, 2, -2, 3))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def chorded_minus(rng, n, zero_b):
    """I - B for a cycle with n / 8 chords of reach at most 4, with B zero
    on one arc and, when asked, on a whole row; the entries of B are
    negative as well as positive."""
    b = [list(row) for row in cycle_with_chords(rng, n, max(2, n // 8), reach=4).b]
    support = [(i, j) for i in range(n) for j in range(n) if b[i][j]]
    i, j = rng.choice(support)
    b[i][j] = 0
    if zero_b:
        b[rng.randrange(n)] = [0] * n
    return i_minus(b)


@pytest.fixture
def swept(monkeypatch):
    """The number of pivots `_sweep` takes, one per call."""
    seen = []
    sweep = ktheory._sweep

    def counting(live, cols):
        seen.append(sweep(live, cols))
        return seen[-1]

    monkeypatch.setattr(ktheory, "_sweep", counting)
    return seen


class TestUnitSweep:
    @settings(max_examples=300, deadline=None)
    @given(unit_heavy_blocks())
    # a unit whose row holds four other entries and whose column two: taking
    # it would fill in 8 entries and clear 7, so the sweep must leave it
    @example([[1, 2, 2, 2, 2, 0, 0, 0, 0], [2, 0, 0, 0, 0, 2, 2, 0, 0], [2, 0, 0, 0, 0, 0, 0, 2, 2]])
    def test_sweep_lowers_the_nonzero_count(self, m):
        live, cols = live_and_cols(sparse_rows(m))
        before = sum(map(len, live.values()))
        count = ktheory._sweep(live, cols)
        # each pivot takes its own entry and fills in no more than it clears
        assert sum(map(len, live.values())) <= before - count
        # the index sets still describe the rows, with no empty column
        assert cols == {j: {i for i, row in live.items() if j in row} for row in live.values() for j in row}
        # no pivot the sweep could take is left
        for row in live.values():
            for j, x in row.items():
                assert x not in (1, -1) or (len(row) > 2 and len(cols[j]) > 2), (m, live)
        # the count unit pivots and what is left make up the whole cokernel
        _, pivots = diagonal_form(list(live.values()))
        assert abelian_group(len(m) - count - len(pivots), pivots) == smith_group(m)

    def test_cycles_with_chords(self, swept):
        rng = random.Random(69)
        for k in range(60):
            m = chorded_minus(rng, rng.randint(8, 40), zero_b=k % 2)
            assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), m
        assert min(swept) > 0

    def test_rectangular_sparse_blocks(self, swept, tail_rows):
        rng = random.Random(70)
        for _ in range(150):
            rows, cols = rng.randint(1, 24), rng.randint(1, 24)
            density = rng.choice((0.1, 0.2, 0.35))
            m = [
                [rng.choice((-1, 1, -2, 2, 3, -5)) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            assert abelian_group(*diagonal_form(sparse_rows(m))) == smith_group(m), m
        assert sum(map(bool, swept)) >= 100
        assert tail_rows  # some blocks are left dense enough to finish in the tail


GROUPS = {
    "0": AbelianGroup(0, ()),
    "Z": AbelianGroup(1, ()),
    "Z^2": AbelianGroup(2, ()),
    "Z/2": AbelianGroup(0, (2,)),
    "Z/6": AbelianGroup(0, (6,)),
    "Z+Z/3": AbelianGroup(1, (3,)),
}


class TestRealize:
    def test_worked_example(self):
        cert = realize(AbelianGroup(0, (2,)), AbelianGroup(0, ()))
        assert cert.pair.a == ((2, 3), (1, 2))
        assert cert.pair.b == ((1, 1), (1, 1))

    def test_free_pair(self):
        cert = realize(AbelianGroup(1, ()), AbelianGroup(1, ()))
        assert cert.pair.a == ((2, 1), (1, 2))
        assert cert.pair.b == ((1, 1), (1, 1))

    def test_free_rank_mismatch(self):
        with pytest.raises(UnrealizableWithSquareMatrices):
            realize(AbelianGroup(1, ()), AbelianGroup(0, ()))

    def test_all_matching_pairs_round_trip(self):
        for name0, g0 in GROUPS.items():
            for name1, g1 in GROUPS.items():
                if g0.free_rank != g1.free_rank:
                    with pytest.raises(UnrealizableWithSquareMatrices):
                        realize(g0, g1)
                    continue
                cert = realize(g0, g1)
                assert cert.result.k0 == g0, (name0, name1)
                assert cert.result.k1 == g1, (name0, name1)
                assert cert.condition_e and cert.irreducible and cert.diagonal_conditions

    def test_block_identities(self):
        # cokernel and kernel of I - A match those of the half-size core block
        cert = realize(AbelianGroup(1, (3,)), AbelianGroup(1, (2, 4)))
        pair = cert.pair
        half = pair.n // 2
        core = [
            [(1 if i == j else 0) - pair.a[i][half + j] for j in range(half)]
            for i in range(half)
        ]
        ia = [
            [(1 if i == j else 0) - pair.a[i][j] for j in range(pair.n)]
            for i in range(pair.n)
        ]
        assert cokernel(ia) == cokernel(core)
        assert len(ia) - rational_rank(ia) == len(core) - rational_rank(core)
