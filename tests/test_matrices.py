import copy
import pickle
import random
import sys

import pytest

from katsura.errors import StructuralError
from katsura.matrices import MatrixPair, graph_facts, strongly_connected_components

from conftest import random_pair, sparse_scc_pair
from oracles import Cycle, enumerate_simple_cycles, is_transitory, simple_vertex_cycles

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])


def pair_of(a, b):
    return MatrixPair.from_rows(a, b)


def old_checks(a, b):
    """The validity rules as the two passes they once were, kept as the
    oracle: row conversion (shape, integer entries, negative A), then the
    violation report (zero A-rows, then B off the support).  Returns the
    message construction must raise, or None for a valid pair."""
    n = len(a)
    if n == 0:
        return "A is empty"
    for name, m in (("A", a), ("B", b)):
        if len(m) != n or any(len(row) != n for row in m):
            return f"{name} is not a square matrix of size {n}"
    for x in [x for row in a for x in row] + [x for row in b for x in row]:
        if isinstance(x, bool) or not isinstance(x, int):
            return f"matrix entry {x!r} is not an integer"
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x < 0:
                return f"A[{i + 1}][{j + 1}] = {x} is negative"
    problems = [f"row {i} of A is zero" for i, row in enumerate(a, 1) if max(row, default=0) < 1]
    for i, (a_row, b_row) in enumerate(zip(a, b), 1):
        problems += [
            f"B[{i}][{j}] is nonzero but A[{i}][{j}] = 0"
            for j, (x, y) in enumerate(zip(a_row, b_row), 1)
            if x == 0 and y != 0
        ]
    return "invalid pair: " + "; ".join(problems) if problems else None


class Int(int):
    """An int subclass: a valid entry, but not one of the plain ints that
    construction's one-scan check accepts."""


# an integer with as many digits as str() will print
HUGE = 10 ** (sys.get_int_max_str_digits() - 1)


def random_rows(rng):
    """Rows of a candidate pair, often invalid: zero A-rows, B off the
    support, negative A-entries, entries that are not integers (bool, float,
    None, str), int-subclass and huge entries, and ragged rows."""
    n = rng.randint(1, 4)

    def entry(negative):
        r = rng.random()
        if r < 0.02:
            return rng.choice([True, False, 1.0, None, "1"])
        if r < 0.04:
            return rng.choice([Int(0), Int(1), Int(2), HUGE])
        if r < 0.04 + negative:
            return -rng.choice([1, 2, 3, HUGE])
        return rng.choice([0, 0, 1, 2])

    def matrix(negative):
        rows = n if rng.random() > 0.03 else rng.randint(0, n + 1)
        out = []
        for _ in range(rows):
            width = n if rng.random() > 0.03 else rng.randint(0, n + 1)
            row = [entry(negative) for _ in range(width)]
            out.append([0] * width if rng.random() < 0.1 else row)
        return out

    return matrix(0.01), matrix(0.3)


class TestValidate:
    def test_ok(self):
        assert E1.sections == ((1, 2), (1, 2))
        assert E1.zero_b_rows == frozenset()

    def test_zero_b_rows(self):
        pair = pair_of([[2, 1, 0], [1, 2, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert pair.zero_b_rows == {2, 3}
        assert pair == pair_of(pair.a, pair.b) and "zero_b_rows" not in repr(pair)

    def test_zero_row(self):
        with pytest.raises(StructuralError) as exc:
            pair_of([[0, 0], [1, 1]], [[0, 0], [0, 0]])
        assert "row 1 of A is zero" in str(exc.value)

    def test_b_off_support(self):
        with pytest.raises(StructuralError) as exc:
            pair_of([[2, 0], [1, 2]], [[1, 5], [1, 1]])
        assert "B[1][2]" in str(exc.value)

    def test_idempotent_and_pure(self):
        rows = ([[2, 0], [1, 2]], [[1, 0], [1, 1]])
        p, q = pair_of(*rows), pair_of(*rows)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert p.sections == q.sections == ((1,), (1, 2))
        assert repr(p) == "MatrixPair(n=2, a=((2, 0), (1, 2)), b=((1, 0), (1, 1)))"
        messages = set()
        for _ in range(2):
            with pytest.raises(StructuralError) as exc:
                pair_of([[0, 0], [1, 0]], [[0, 1], [1, 1]])
            messages.add(str(exc.value))
        assert messages == {
            "invalid pair: row 1 of A is zero; B[1][2] is nonzero but A[1][2] = 0;"
            " B[2][2] is nonzero but A[2][2] = 0"
        }

    def test_structural_errors(self):
        with pytest.raises(StructuralError):
            MatrixPair.from_rows([[1, 2]], [[1, 2]])
        with pytest.raises(StructuralError):
            MatrixPair.from_rows([[1]], [[1], [2]])
        with pytest.raises(StructuralError):
            MatrixPair.from_rows([[-1]], [[0]])
        with pytest.raises(StructuralError):
            MatrixPair.from_rows([[True]], [[0]])
        with pytest.raises(StructuralError, match="A is empty"):
            MatrixPair.from_rows([], [])

    def test_direct_construction_is_checked(self):
        with pytest.raises(StructuralError, match="row 1 of A is zero"):
            MatrixPair(1, ((0,),), ((0,),))
        with pytest.raises(StructuralError, match="A is not a square matrix of size 2"):
            MatrixPair(2, ((1,),), ((1,),))

    def test_construction_agrees_with_old_checks(self):
        rng = random.Random(23)
        seen = set()
        not_integers = set()
        for _ in range(1000):
            a, b = random_rows(rng)
            expected = old_checks(a, b)
            if expected is None:
                pair = MatrixPair.from_rows(a, b)
                assert pair.sections == tuple(
                    tuple(j for j, x in enumerate(row, 1) if x) for row in a
                )
                assert pair.zero_b_rows == {i for i, row in enumerate(b, 1) if not any(row)}
                if pair.zero_b_rows:
                    seen.add("valid with a zero B-row")
                seen.add("valid")
                entries = [x for row in a + b for x in row]
                if any(type(x) is Int for x in entries):
                    seen.add("valid with an int subclass")
                if any(abs(x) == HUGE for x in entries):
                    seen.add("valid with a huge entry")
                continue
            with pytest.raises(StructuralError) as exc:
                MatrixPair.from_rows(a, b)
            assert str(exc.value) == expected
            for kind in ("empty", "square", "integer", "negative", "is zero", "nonzero but"):
                if kind in expected:
                    seen.add(kind)
            if expected.endswith("is not an integer"):
                not_integers.add(expected.split()[2])
        assert not_integers == {"True", "False", "1.0", "None", "'1'"}
        assert seen == {
            "valid", "valid with an int subclass", "valid with a huge entry", "valid with a zero B-row",
            "empty", "square", "integer", "negative", "is zero", "nonzero but",
        }


class TestPairContract:
    """What callers may rely on in a pair and its graph facts, whatever
    class machinery provides it."""

    def test_repr(self):
        assert repr(pair_of([[2]], [[1]])) == "MatrixPair(n=1, a=((2,),), b=((1,),))"
        assert repr(E1) == "MatrixPair(n=2, a=((2, 1), (1, 2)), b=((1, 1), (1, 1)))"

    def test_equality_and_hash(self):
        p = MatrixPair(n=2, a=((2, 1), (1, 2)), b=((1, 1), (1, 1)))
        assert p == E1 and hash(p) == hash(E1) and len({p, E1}) == 1
        assert p != pair_of([[2, 1], [1, 2]], [[1, 1], [1, 0]])
        assert p != (2, p.a, p.b) and (2, p.a, p.b) != p
        assert MatrixPair(2, a=p.a, b=p.b) == MatrixPair(2, p.a, p.b) == p

    def test_immutable(self):
        p = pair_of([[2]], [[1]])
        for name in ("n", "a", "sections", "zero_b_rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, 1)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == pair_of([[2]], [[1]]) and p.sections == ((1,),)

    def test_copy_and_pickle_round_trip(self):
        pair = pair_of([[2, 1, 0], [1, 2, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        for twin in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert twin == pair and hash(twin) == hash(pair) and repr(twin) == repr(pair)
            assert twin.sections == pair.sections and twin.zero_b_rows == pair.zero_b_rows == {2, 3}

    def test_graph_facts_are_a_read_only_record(self):
        facts = graph_facts(E1)
        assert (facts.condition_e, facts.condition_l, facts.condition_k, facts.irreducible) == (True,) * 4
        assert facts.cyclic_components == 1 and facts.components == ((1, 2),)
        assert facts == graph_facts(pair_of(E1.a, E1.b))
        with pytest.raises(AttributeError):
            facts.irreducible = False
        with pytest.raises(AttributeError):
            del facts.components


class TestConditionE:
    def test_all_supported_nonzero(self):
        assert graph_facts(E1).condition_e

    def test_zero_on_support(self):
        assert not graph_facts(pair_of([[2, 1], [1, 2]], [[1, 0], [1, 1]])).condition_e

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_b_on_loop(self, n):
        assert not graph_facts(pair_of([[n]], [[0]])).condition_e


def brute_reach(pair):
    """Boolean reachability closure: reach[i][j] iff sum_{k=1..N} support^k
    is positive at (i, j), 0-based."""
    n = pair.n
    adj = [[pair.a_at(i + 1, j + 1) >= 1 for j in range(n)] for i in range(n)]
    reach = [row[:] for row in adj]
    power = [row[:] for row in adj]
    for _ in range(n - 1):
        power = [
            [any(power[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        reach = [[reach[i][j] or power[i][j] for j in range(n)] for i in range(n)]
    return reach


def brute_irreducible(pair):
    return all(all(row) for row in brute_reach(pair))


class TestIrreducible:
    def test_complete_support(self):
        assert graph_facts(E1).irreducible

    def test_upper_triangular(self):
        assert not graph_facts(pair_of([[2, 1], [0, 2]], [[1, 1], [0, 1]])).irreducible

    def test_single_loop(self):
        assert graph_facts(pair_of([[3]], [[1]])).irreducible

    def test_against_reachability_closure(self):
        rng = random.Random(11)
        for _ in range(200):
            pair = random_pair(rng, n_max=6, a_max=2)
            assert graph_facts(pair).irreducible == brute_irreducible(pair)

    def test_components_against_reachability_closure(self):
        # two vertices share a component iff each reaches the other
        rng = random.Random(17)
        for _ in range(200):
            pair = random_pair(rng, n_max=6, a_max=2)
            reach = brute_reach(pair)
            components = strongly_connected_components(pair)
            assert sorted(v for c in components for v in c) == list(pair.vertices)
            component = {v: c for c, members in enumerate(components) for v in members}
            for i in pair.vertices:
                for j in pair.vertices:
                    mutual = i == j or (reach[i - 1][j - 1] and reach[j - 1][i - 1])
                    assert (component[i] == component[j]) == mutual

    def test_components_listed_sinks_first(self):
        # every support arc leads into its own component or an earlier one,
        # the order in which the fixed-point escape propagates escaping
        rng = random.Random(18)
        for _ in range(300):
            pair = sparse_scc_pair(rng) if rng.random() < 0.5 else random_pair(rng, n_max=6, a_max=2)
            components = graph_facts(pair).components
            assert list(components) == strongly_connected_components(pair)
            position = {v: c for c, members in enumerate(components) for v in members}
            for i in pair.vertices:
                for j in pair.out_vertices(i):
                    assert position[j] <= position[i], (pair, i, j)


def oracle_condition_l(pair):
    """A cycle is exit-free iff each of its vertices emits exactly one edge,
    so scan every simple vertex cycle for that degenerate shape."""
    for verts in simple_vertex_cycles(pair):
        if all(sum(pair.a[v - 1]) == 1 for v in verts):
            return False
    return True


class TestConditionL:
    def test_two_cycle_without_exit(self):
        assert not graph_facts(pair_of([[0, 1], [1, 0]], [[0, 1], [1, 0]])).condition_l

    def test_double_loop(self):
        assert graph_facts(pair_of([[2]], [[1]])).condition_l

    def test_e1(self):
        assert graph_facts(E1).condition_l

    def test_against_cycle_scan(self):
        rng = random.Random(12)
        for _ in range(300):
            pair = random_pair(rng, n_max=5, a_max=3)
            assert graph_facts(pair).condition_l == oracle_condition_l(pair)


def oracle_count_returns(pair, v, bound):
    """Walks v -> v avoiding v internally, counted with edge multiplicity by
    exact powers of the v-deleted adjacency matrix."""
    others = [u for u in pair.vertices if u != v]
    idx = {u: k for k, u in enumerate(others)}
    m = [[pair.a_at(p, q) for q in others] for p in others]
    out_row = [pair.a_at(v, q) for q in others]
    in_col = [pair.a_at(p, v) for p in others]
    total = pair.a_at(v, v)  # length-1 returns
    vec = out_row
    for _ in range(bound - 1):
        total += sum(x * y for x, y in zip(vec, in_col))
        vec = [
            sum(vec[k] * m[k][q] for k in range(len(others)))
            for q in range(len(others))
        ]
        if total >= 5:
            break
    return total


class TestConditionK:
    def test_double_loop(self):
        assert graph_facts(pair_of([[2]], [[1]])).condition_k

    def test_unique_two_cycle(self):
        assert not graph_facts(pair_of([[0, 1], [1, 0]], [[0, 1], [1, 0]])).condition_k

    def test_single_loop(self):
        assert not graph_facts(pair_of([[1]], [[1]])).condition_k

    def test_against_walk_counting(self):
        # the shortest second return walk has length <= 2N, so the bounded
        # count decides "exactly one" exactly
        rng = random.Random(13)
        for _ in range(200):
            pair = random_pair(rng, n_max=4, a_max=2)
            expected = all(
                oracle_count_returns(pair, v, 2 * pair.n) != 1 for v in pair.vertices
            )
            assert graph_facts(pair).condition_k == expected

    def test_irreducible_and_l_implies_k(self):
        rng = random.Random(14)
        for _ in range(400):
            pair = random_pair(rng, n_max=4, a_max=3)
            facts = graph_facts(pair)
            if facts.irreducible and facts.condition_l:
                assert facts.condition_k


def oracle_cycles(pair, max_len):
    """Brute force: all closed edge walks with pairwise distinct vertices,
    deduplicated by least rotation."""
    found = set()

    def walk(edges, visited):
        start, current = edges[0][0], edges[-1][1]
        if current == start:
            rotations = [tuple(edges[k:] + edges[:k]) for k in range(len(edges))]
            found.add(min(rotations))
            return
        if len(edges) == max_len:
            return
        for w in pair.out_vertices(current):
            if w == start or w not in visited:
                for n in range(1, pair.a_at(current, w) + 1):
                    walk(edges + [(current, w, n)], visited | {w})

    for start in pair.vertices:
        for j in pair.out_vertices(start):
            for n in range(1, pair.a_at(start, j) + 1):
                walk([(start, j, n)], {start, j})
    return found


class TestSimpleCycles:
    def test_double_loop(self):
        assert enumerate_simple_cycles(pair_of([[2]], [[1]]), 1) == [
            ((1, 1, 1),),
            ((1, 1, 2),),
        ]

    def test_two_cycle(self):
        cycles = enumerate_simple_cycles(pair_of([[0, 1], [1, 0]], [[0, 1], [1, 0]]), 2)
        assert cycles == [((1, 2, 1), (2, 1, 1))]

    def test_e1_length_one(self):
        assert enumerate_simple_cycles(E1, 1) == [
            ((1, 1, 1),),
            ((1, 1, 2),),
            ((2, 2, 1),),
            ((2, 2, 2),),
        ]

    def test_against_brute_force(self):
        rng = random.Random(15)
        for _ in range(60):
            pair = random_pair(rng, n_max=4, a_max=2)
            for cap in (1, 2, pair.n):
                assert set(enumerate_simple_cycles(pair, cap)) == oracle_cycles(pair, cap)

    def test_bad_cap(self):
        with pytest.raises(StructuralError):
            enumerate_simple_cycles(E1, 0)


class TestTransitory:
    def test_self_loop_with_parallel_exit(self):
        assert not is_transitory(pair_of([[2]], [[1]]), Cycle(((1, 1, 1),)))

    def test_exit_cannot_return(self):
        pair = pair_of([[1, 1], [0, 1]], [[1, 1], [0, 1]])
        assert is_transitory(pair, Cycle(((1, 1, 1),)))

    def test_cycle_without_exits(self):
        pair = pair_of([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert is_transitory(pair, Cycle(((1, 2, 1), (2, 1, 1))))

    def test_edge_not_in_graph(self):
        with pytest.raises(StructuralError):
            is_transitory(E1, Cycle(((1, 1, 3),)))

    def test_malformed_cycle(self):
        with pytest.raises(StructuralError):
            Cycle(((1, 2, 1),))  # not closed
        with pytest.raises(StructuralError):
            Cycle(((1, 1, 1), (2, 2, 1)))  # endpoints do not chain
