import random

import pytest

from katsura.errors import DomainError
from katsura.invsemigroup import ZERO, multiply
from katsura.matrices import MatrixPair
from katsura.semigroupoid import GWord, HAtom, HPower, compose, lcm, source, standard_form, target

from conftest import random_pair, random_raw_word, random_sgp
from oracles import divides_by_witness, generator_s, unitary

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])


def partial_isometry(pair, e):
    """The image of a semigroupoid element in the inverse semigroup:
    g(i,j,n) -> s(i,j,n) and h(i)^t -> u(i)^t, multiplied out."""
    if isinstance(e, HPower):
        return unitary(pair, e.vertex, e.exponent)
    out = generator_s(pair, *e.edges[0])
    for edge in e.edges[1:]:
        out = multiply(pair, out, generator_s(pair, *edge))
    return out


class TestStandardForm:
    def test_single_rewrite(self):
        assert standard_form(E1, [(1, 1, 3), (1, 2, 1)]) == GWord(((1, 1, 1), (1, 2, 2)))

    def test_left_h_absorption(self):
        assert standard_form(E1, [HAtom(1), (1, 2, 4)]) == GWord(((1, 2, 5),))

    def test_identity_on_normal_forms(self):
        word = [(1, 1, 1), (1, 2, 2)]
        assert standard_form(E1, word) == GWord(((1, 1, 1), (1, 2, 2)))

    def test_pure_h_sums(self):
        assert standard_form(E1, [HAtom(1), HAtom(1, 2)]) == HPower(1, 3)

    def test_pure_h_nonpositive(self):
        with pytest.raises(DomainError):
            standard_form(E1, [HAtom(1, -2), HAtom(1)])

    def test_non_composable(self):
        with pytest.raises(DomainError):
            standard_form(E1, [HAtom(1), HAtom(2)])
        with pytest.raises(DomainError):
            standard_form(E1, [(1, 2, 1), (1, 2, 1)])

    def test_leftmost_fault_is_reported(self):
        with pytest.raises(DomainError, match=r"^non-composable adjacency: g\(1,2,1\) then h\(1\)\^-2$"):
            standard_form(E1, [(1, 2, 1), HAtom(1, -2), HAtom(5)])
        with pytest.raises(DomainError, match=r"^vertex 5 out of range$"):
            standard_form(E1, [HAtom(5), (1, 2, 1), HAtom(1)])

    def test_trailing_h_absorbs_by_a(self):
        # g(1,2,1).h(2)^2 shifts the final offset by 2*A[1][2]
        assert standard_form(E1, [(1, 2, 1), HAtom(2, 2)]) == GWord(((1, 2, 3),))

    def test_negative_offset_reduction(self):
        # offsets below the window borrow: -1 = 1 + (-1)*2 over the loop at 1
        out = standard_form(E1, [(1, 1, -1), (1, 1, 1)])
        assert out == GWord(((1, 1, 1), (1, 1, 0)))


def rewrite_step(pair, edges, pos, direction):
    """One application of the defining identity at position pos."""
    i, j, n = edges[pos]
    j2, k, m = edges[pos + 1]
    a = pair.a_at(i, j)
    b = pair.b_at(j2, k)
    if direction > 0:
        return edges[:pos] + [(i, j, n - a), (j2, k, m + b)] + edges[pos + 2 :]
    return edges[:pos] + [(i, j, n + a), (j2, k, m - b)] + edges[pos + 2 :]


class TestConfluence:
    def test_random_rewrite_orders(self):
        rng = random.Random(21)
        for _ in range(300):
            pair = random_pair(rng, n_max=4, a_max=3)
            word = random_raw_word(rng, pair, max_len=8)
            canonical = standard_form(pair, word)
            if isinstance(canonical, HPower):
                continue
            edges = list(canonical.edges)
            # scramble by random rewrites, then renormalize
            scrambled = [
                (i, j, n + pair.a_at(i, j) * rng.randint(-2, 2)) for i, j, n in edges
            ]
            # that is not an equivalent word; instead walk from the true edges
            walked = edges
            for _ in range(rng.randint(0, 12)):
                if len(walked) < 2:
                    break
                pos = rng.randrange(len(walked) - 1)
                walked = rewrite_step(pair, walked, pos, rng.choice((1, -1)))
            assert standard_form(pair, [tuple(e) for e in walked]) == canonical


class TestCompose:
    def test_h_powers_add(self):
        assert compose(E1, HPower(1, 2), HPower(1, 3)) == HPower(1, 5)

    def test_g_then_h(self):
        assert compose(E1, GWord(((1, 2, 1),)), HPower(2, 1)) == GWord(((1, 2, 2),))

    def test_vertex_mismatch_is_undefined(self):
        assert compose(E1, HPower(2, 1), GWord(((1, 2, 1),))) is None

    def test_maps_to_the_product_of_partial_isometries(self):
        # g(i,j,n) -> s(i,j,n) and h(i)^t -> u(i)^t respect both shift
        # relations, so the image of a composite is the product of the
        # images; a pair that does not compose multiplies to zero
        rng = random.Random(24)
        joined = 0
        while joined < 2000:
            pair = random_pair(rng, n_max=3, a_max=3, b_max=4, ensure_e=rng.random() < 0.7)
            f = random_sgp(rng, pair, max_len=5)
            gel = random_sgp(rng, pair, max_len=5)
            product = multiply(pair, partial_isometry(pair, f), partial_isometry(pair, gel))
            fg = compose(pair, f, gel)
            if fg is None:
                assert target(f) != source(gel) and product is ZERO
                continue
            assert partial_isometry(pair, fg) == product
            joined += 1

    def test_associative(self):
        rng = random.Random(25)
        checked = 0
        while checked < 500:
            pair = random_pair(rng, n_max=3, a_max=3, b_max=4)
            f, gel, k = (random_sgp(rng, pair, max_len=4) for _ in range(3))
            fg, gk = compose(pair, f, gel), compose(pair, gel, k)
            if fg is None or gk is None:
                continue
            assert compose(pair, fg, k) == compose(pair, f, gk)
            checked += 1

    def test_monic(self):
        rng = random.Random(22)
        for _ in range(400):
            pair = random_pair(rng, n_max=3, a_max=3)
            f = random_sgp(rng, pair, max_len=3)
            a = random_sgp(rng, pair, max_len=3)
            b = random_sgp(rng, pair, max_len=3)
            fa, fb = compose(pair, f, a), compose(pair, f, b)
            if fa is not None and fa == fb:
                assert a == b

    def test_epic_fails_without_condition_e(self):
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[0, 1], [1, 1]])
        # B[1][1] = 0 makes h(1) act trivially on the loop generator
        f = GWord(((1, 1, 1),))
        left = compose(pair, HPower(1, 1), f)
        right = compose(pair, HPower(1, 2), f)
        assert left == right == f

    def test_epic_failure_witness_on_random_pairs(self):
        # every pair with a vanishing B-entry on the support admits g != h
        # with equal right-compositions
        from katsura.matrices import graph_facts

        rng = random.Random(27)
        found = 0
        while found < 100:
            pair = random_pair(rng, n_max=3, a_max=3)
            if graph_facts(pair).condition_e:
                continue
            i, j = next(
                (i, j)
                for i in pair.vertices
                for j in pair.out_vertices(i)
                if pair.b_at(i, j) == 0
            )
            f = GWord(((i, j, 1),))
            assert compose(pair, HPower(i, 1), f) == compose(pair, HPower(i, 2), f)
            found += 1

    def test_epic_under_condition_e(self):
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            pair = random_pair(rng, n_max=3, a_max=3, ensure_e=True)
            a = random_sgp(rng, pair, max_len=3)
            b = random_sgp(rng, pair, max_len=3)
            f = random_sgp(rng, pair, max_len=3)
            af, bf = compose(pair, a, f), compose(pair, b, f)
            if af is None or bf is None:
                continue
            checked += 1
            if af == bf:
                assert a == b


class TestDivisibility:
    def test_congruent_offsets_intersect(self):
        assert lcm(E1, GWord(((1, 1, 1),)), GWord(((1, 1, 3),))) is not None

    def test_incongruent_offsets_disjoint(self):
        assert lcm(E1, GWord(((1, 1, 1),)), GWord(((1, 1, 2),))) is None

    def test_divides_matches_witness_search(self):
        # the quotient oracle the lcm tests rest on, against a bounded search
        rng = random.Random(24)
        for _ in range(300):
            pair = random_pair(rng, n_max=3, a_max=2)
            f = random_sgp(rng, pair, max_len=3)
            w = random_sgp(rng, pair, max_len=3)
            found = f == w or any(
                compose(pair, f, e) == w for e in _extension_candidates(pair, f, w)
            )
            assert divides_by_witness(pair, f, w) == found


def _extension_candidates(pair, f, w):
    """All elements e with compose(f, e) possibly equal to w: bounded search.
    The true witness differs from w's tail only in its first offset, by a
    carry bounded by the offsets in play."""
    out = []
    start = target(f)
    for t in range(1, 21):
        out.append(HPower(start, t))
    if isinstance(w, GWord):
        want = len(w) - (len(f) if isinstance(f, GWord) else 0)
        if want >= 1:
            tail = w.edges[len(w.edges) - want :]
            for n in range(tail[0][2] - 40, tail[0][2] + 41):
                out.append(GWord(((tail[0][0], tail[0][1], n),) + tail[1:]))
    return [e for e in out if source(e) == start]


class TestLcm:
    def test_h_vs_h(self):
        assert lcm(E1, HPower(1, 2), HPower(1, 5)) == HPower(1, 5)

    def test_h_vs_gword(self):
        assert lcm(E1, HPower(1, 2), GWord(((1, 2, 1),))) == GWord(((1, 2, 1),))

    def test_equal_length_larger_final(self):
        assert lcm(E1, GWord(((1, 1, 1),)), GWord(((1, 1, 3),))) == GWord(((1, 1, 3),))

    def test_disjoint_gives_none(self):
        assert lcm(E1, GWord(((1, 1, 1),)), GWord(((1, 1, 2),))) is None

    def test_lcm_divides_all_common_multiples(self):
        rng = random.Random(25)
        hits = 0
        while hits < 200:
            pair = random_pair(rng, n_max=3, a_max=2)
            f = random_sgp(rng, pair, max_len=3)
            w = random_sgp(rng, pair, max_len=3)
            m = lcm(pair, f, w)
            if m is None:
                # disjoint: the bounded search finds no common multiple either
                assert not _bounded_common_multiples(pair, f, w, max_extra=2)
                continue
            hits += 1
            assert divides_by_witness(pair, f, m) and divides_by_witness(pair, w, m)
            for cm in _bounded_common_multiples(pair, f, w, max_extra=2):
                assert divides_by_witness(pair, m, cm)


def _bounded_common_multiples(pair, f, w, max_extra):
    """Common multiples of the form compose(f, e) with small e."""
    out = []
    start = target(f)
    candidates = [HPower(start, t) for t in (1, 2, 3)]
    frontier = [()]
    for _ in range(max_extra):
        new = []
        for tail in frontier:
            v = tail[-1][1] if tail else start
            for j in pair.out_vertices(v):
                for n in range(-2 * pair.a_at(v, j), 2 * pair.a_at(v, j) + 1):
                    new.append(tail + ((v, j, n),))
        frontier = new
        candidates.extend(GWord(t) for t in frontier)
    for e in candidates:
        m = compose(pair, f, e)
        if m is not None and divides_by_witness(pair, w, m):
            out.append(m)
    if divides_by_witness(pair, w, f):
        out.append(f)
    return out
