import random
from collections import Counter
from fractions import Fraction

import pytest

from katsura import pathspace
from katsura.errors import DomainError, StructuralError
from katsura.invsemigroup import (
    PathWord,
    Triple,
    ZERO,
    Zero,
    is_idempotent,
    is_prefix,
    multiply,
    push_unitary,
    star,
    triple,
)
from katsura.matrices import MatrixPair
from katsura.pathspace import (
    act_on_periodic,
    act_on_prefix,
    eventually_periodic,
    generate_fixed_point,
    germ_equal,
    image_point,
)

from conftest import random_backward_walk, random_isg, random_pair, random_path_word, random_walk
from oracles import (
    capped_germ_equal,
    generator_s,
    has_fixed_cylinder,
    integrality_trace,
    pairwise_multiply,
    projection_q,
    unitary,
)

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])
D2 = MatrixPair.from_rows([[2]], [[1]])


def loop_point(pair, vertex=1, offset=1):
    return eventually_periodic(PathWord(vertex), PathWord(vertex, ((vertex, vertex, offset),)))


class TestCanonicalForm:
    def test_primitive_period(self):
        doubled = eventually_periodic(PathWord(1), PathWord(1, ((1, 1, 1), (1, 1, 1))))
        assert doubled == loop_point(D2)

    def test_rotation_absorbed(self):
        x = eventually_periodic(
            PathWord(1, ((1, 1, 2),)), PathWord(1, ((1, 1, 1), (1, 1, 2)))
        )
        y = eventually_periodic(PathWord(1), PathWord(1, ((1, 1, 2), (1, 1, 1))))
        assert x == y

    def test_equality_matches_unfolding(self):
        rng = random.Random(41)
        for _ in range(200):
            pair = random_pair(rng, n_max=3, a_max=2)
            x = _random_point(rng, pair)
            y = _random_point(rng, pair)
            depth = max(
                len(x.preperiod) + 2 * len(x.period),
                len(y.preperiod) + 2 * len(y.period),
            )
            assert (x == y) == (x.unfold(depth) == y.unfold(depth))

    def test_rejects_non_cycle(self):
        with pytest.raises(StructuralError):
            eventually_periodic(PathWord(1), PathWord(1, ((1, 2, 1),)))


def _random_point(rng, pair):
    pre = random_path_word(rng, pair, max_len=2)
    v = pre.target
    # find a cycle at v: random walk until it returns (bounded tries)
    for _ in range(60):
        length = rng.randint(1, 4)
        edges = random_walk(rng, pair, v, length)
        if edges[-1][1] == v:
            return eventually_periodic(pre, PathWord(v, edges))
    # fall back to a guaranteed loop somewhere reachable: extend the preperiod
    for _ in range(60):
        w = pre.target
        if pair.a_at(w, w) >= 1:
            return eventually_periodic(pre, PathWord(w, ((w, w, 1),)))
        j = rng.choice(pair.out_vertices(w))
        pre = PathWord(pre.base, pre.edges + ((w, j, rng.randint(1, pair.a_at(w, j))),))
    raise AssertionError("could not build an eventually periodic point")


def _cylinder(pair, gamma):
    """s_gamma, whose product with s is s's action on the cylinder of gamma."""
    return triple(pair, gamma, 0, PathWord(gamma.target))


class TestActOnPrefix:
    def test_projection_acts_as_identity(self):
        gamma = PathWord(1, ((1, 1, 1),))
        assert act_on_prefix(E1, projection_q(E1, 1), gamma) == _cylinder(E1, gamma)

    def test_prepend(self):
        out = act_on_prefix(E1, generator_s(E1, 2, 1, 1), PathWord(1, ((1, 1, 2),)))
        assert out == _cylinder(E1, PathWord(2, ((2, 1, 1), (1, 1, 2))))

    def test_wrong_vertex_is_zero(self):
        assert act_on_prefix(E1, projection_q(E1, 2), PathWord(1, ((1, 1, 1),))) == ZERO

    def test_short_prefix_of_domain(self):
        # s = s_J* with J = (1,1,1)(1,1,2): s s_(1,1,1) = s_(1,1,2)* still
        # carries an adjoint word, so the cylinder is too short to decide
        s = star(triple(E1, PathWord(1, ((1, 1, 1), (1, 1, 2))), 0, PathWord(1)))
        assert act_on_prefix(E1, s, PathWord(1, ((1, 1, 1),))) == Triple(PathWord(1), 0, PathWord(1, ((1, 1, 2),)))
        assert act_on_prefix(E1, s, PathWord(1, ((1, 1, 2),))) == ZERO

    def test_zero_element(self):
        assert act_on_prefix(E1, ZERO, PathWord(1)) == ZERO

    def test_residual_reads_zero_at_a_zero_b_row(self):
        # u_2 = p_2, so u(1) s(1,2,1) = s(1,2,1) u(2)^1 = s(1,2,1)
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [0, 0]])
        gamma = PathWord(1, ((1, 2, 1),))
        assert act_on_prefix(pair, unitary(pair, 1), gamma) == _cylinder(pair, gamma)

    def test_residual_is_the_normal_forms_exponent(self):
        # s . gamma is s s_gamma in normal form, by the whole-element oracle
        # and by the library's fold alike, whether gamma is a proper prefix
        # of s's adjoint word J, extends J, or leaves J; on an extension the
        # residual is the normal form's exponent, 0 at a zero B-row
        rng = random.Random(35)
        seen, at_zero_rows = Counter(), 0
        for _ in range(4000):
            pair = random_pair(rng, n_max=3, a_max=3, b_max=9)
            # each B-row zero with chance 0.4: about 60 % of the pairs have one
            b = [[0] * pair.n if rng.random() < 0.4 else row for row in pair.b]
            pair = MatrixPair.from_rows(pair.a, b)
            s = random_isg(rng, pair, max_len=3, t_max=30)
            j_word = s.right
            draw = rng.choice((0, 1, 1, 2))  # extensions twice as often
            if draw == 0 and j_word.edges:
                gamma = PathWord(j_word.base, j_word.edges[: rng.randrange(len(j_word))])
            elif draw == 1:
                walk = random_walk(rng, pair, j_word.target, rng.randint(0, 2))
                gamma = PathWord(j_word.base, j_word.edges + walk)
            else:  # another vertex or offset, mostly
                gamma = random_path_word(rng, pair, max_len=4)
            out = act_on_prefix(pair, s, gamma)
            assert out == pairwise_multiply(pair, s, _cylinder(pair, gamma)) == multiply(pair, s, _cylinder(pair, gamma))
            if len(gamma) < len(j_word) and is_prefix(gamma, j_word):
                shape = "prefix"
            elif is_prefix(j_word, gamma):
                shape = "extension"
                _, pushed_past = push_unitary(pair, j_word.target, s.exponent, gamma.edges[len(j_word):])
                at_zero_rows += out.left.target in pair.zero_b_rows and pushed_past != 0
            else:
                shape = "off"
            seen[shape, bool(pair.zero_b_rows)] += 1
        # each shape at least 300 times, and 150 each with and without zero B-rows
        assert len(seen) == 6 and min(seen.values()) >= 150
        assert all(seen[shape, True] + seen[shape, False] >= 300 for shape in ("prefix", "extension", "off"))
        assert at_zero_rows > 50


class TestActOnPeriodic:
    def test_projection_returns_own_prefix(self):
        x = loop_point(E1)
        assert act_on_periodic(E1, projection_q(E1, 1), x, 2) == x.unfold(2)

    def test_unitary_pushes_through_periods(self):
        x = loop_point(D2)
        out = act_on_periodic(D2, unitary(D2, 1), x, 3)
        assert out == PathWord(1, ((1, 1, 2), (1, 1, 1), (1, 1, 1)))

    def test_wrong_domain_is_zero(self):
        x = loop_point(E1, vertex=2)
        assert act_on_periodic(E1, projection_q(E1, 1), x, 3) == ZERO


def _needs_longer_prefix(product):
    """The product still carries an adjoint word: the cylinder was a proper
    prefix of the element's adjoint word."""
    return not isinstance(product, Zero) and bool(product.right.edges)


class TestActionCompatibility:
    def test_composite_equals_iterated(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(2500):
            pair = random_pair(rng, n_max=3, a_max=3)
            x = random_isg(rng, pair, max_len=3)
            y = random_isg(rng, pair, max_len=3)
            gamma = random_path_word(rng, pair, max_len=5)
            z = multiply(pair, x, y)
            route1 = act_on_prefix(pair, z, gamma)
            o_y = act_on_prefix(pair, y, gamma)
            if _needs_longer_prefix(o_y) or _needs_longer_prefix(route1):
                continue
            if o_y == ZERO:
                assert route1 == ZERO
                continue
            o_x = act_on_prefix(pair, x, o_y.left)
            if _needs_longer_prefix(o_x):
                continue
            if o_x == ZERO:
                assert route1 == ZERO
                continue
            checked += 1
            assert not route1.right.edges
            assert route1.left == o_x.left
            assert route1.exponent == o_x.exponent + o_y.exponent
        assert checked > 200


class TestGenerateFixedPoint:
    def test_pure_cycle(self):
        s = generator_s(D2, 1, 1, 1)
        assert generate_fixed_point(D2, s, 4) == PathWord(1, ((1, 1, 1),) * 4)

    def test_cycle_with_unitary(self):
        s = multiply(D2, generator_s(D2, 1, 1, 1), unitary(D2, 1))
        expected = PathWord(1, ((1, 1, 1), (1, 1, 2), (1, 1, 2), (1, 1, 2)))
        assert generate_fixed_point(D2, s, 4) == expected

    def test_incompatible_words_give_none(self):
        s = multiply(D2, generator_s(D2, 1, 1, 1), star(generator_s(D2, 1, 1, 2)))
        assert generate_fixed_point(D2, s, 4) is None

    def test_pure_unitary_gives_none(self):
        assert generate_fixed_point(D2, unitary(D2, 1), 4) is None

    def test_idempotent_is_domain_error(self):
        with pytest.raises(DomainError):
            generate_fixed_point(D2, projection_q(D2, 1), 4)

    def test_adjoint_side_cycle(self):
        # s = s_K^*: the fixed point of the adjoint of a cycle isometry
        s = star(triple(D2, PathWord(1, ((1, 1, 2),)), 0, PathWord(1)))
        assert generate_fixed_point(D2, s, 3) == PathWord(1, ((1, 1, 2),) * 3)

    def test_fixity_to_depth(self):
        rng = random.Random(43)
        verified = 0
        for _ in range(300):
            pair = random_pair(rng, n_max=3, a_max=3)
            s = _random_cycle_element(rng, pair)
            if s is None:
                continue
            omega = generate_fixed_point(pair, s, 20 + len(s.right))
            if omega is None:
                continue
            out = act_on_prefix(pair, s, omega)
            assert not isinstance(out, Zero) and not out.right.edges
            depth = min(20, len(out.left))
            assert out.left.edges[:depth] == omega.edges[:depth]
            verified += 1
        assert verified > 100

    def test_adjoint_has_the_same_fixed_point(self):
        # s and s* act by mutually inverse partial maps, so Fix(s) = Fix(s*)
        rng = random.Random(45)
        seen = Counter()
        for _ in range(1500):
            # B-entries in -1..1 leave zero B-rows often
            pair = random_pair(rng, n_max=3, a_max=3, b_max=rng.choice((1, 3)))
            s = _random_cycle_element(rng, pair) if rng.random() < 0.7 else random_isg(rng, pair, max_len=3)
            if s is None or is_idempotent(s):
                continue
            if rng.random() < 0.5:
                s = star(s)
            depth = rng.randint(0, 30)
            omega = generate_fixed_point(pair, s, depth)
            assert omega == generate_fixed_point(pair, star(s), depth)
            seen[len(s.left) < len(s.right), omega is not None, bool(pair.zero_b_rows)] += 1
        # both word shapes, with and without a fixed point, with and without
        # zero B-rows
        assert len(seen) == 8 and min(seen.values()) >= 10

    def test_left_word_a_prefix_of_the_adjoint_word(self):
        # s = s_K u^t s_J* with K a proper prefix of J: s times the cylinder
        # projection of its fixed point, a product taken whole by the oracle,
        # maps the point's cylinder onto a prefix of the point itself
        rng = random.Random(46)
        verified = zero_rows = 0
        while verified < 300:
            pair = random_pair(rng, n_max=3, a_max=3, b_max=rng.choice((1, 3)))
            s = _random_cycle_element(rng, pair)
            if s is None:
                continue
            s = star(s)
            omega = generate_fixed_point(pair, s, 20 + len(s.right))
            image = pairwise_multiply(pair, s, triple(pair, omega, 0, omega)).left
            assert len(image) >= 20 and image.edges == omega.edges[: len(image)]
            verified += 1
            zero_rows += bool(pair.zero_b_rows)
        assert zero_rows >= 30

    def test_pushes_only_for_blocks_it_emits(self, monkeypatch):
        # each block after the first is the previous one pushed once, so a
        # call that emits b blocks pushes b - 1 times; the carried exponent
        # grows with every block, so a push past the last would be the dearest
        pushes = []

        def counting(*args):
            pushes.append(args)
            return push_unitary(*args)

        monkeypatch.setattr(pathspace, "push_unitary", counting)
        pair = MatrixPair.from_rows([[2]], [[3]])
        s = multiply(pair, generator_s(pair, 1, 1, 1), unitary(pair, 1))
        for depth, expected in ((0, 0), (1, 0), (2, 1), (6, 5), (2000, 1999)):
            pushes.clear()
            assert len(generate_fixed_point(pair, s, depth)) == depth
            assert len(pushes) == expected, depth
        rng = random.Random(47)
        for _ in range(300):
            pair = random_pair(rng, n_max=3, a_max=3)
            s = _random_cycle_element(rng, pair)
            if s is None:
                continue
            cycle = len(s.left) - len(s.right)
            depth = rng.randint(0, 30)
            pushes.clear()
            generate_fixed_point(pair, rng.choice((s, star(s))), depth)
            blocks = -(-max(0, depth - len(s.right)) // cycle)
            assert len(pushes) == max(0, blocks - 1)


def _random_cycle_element(rng, pair):
    """s_J s_K u^t s_J^* style elements whose fixed point is unique."""
    base = random_path_word(rng, pair, max_len=2)
    v = base.target
    for _ in range(40):
        edges = random_walk(rng, pair, v, rng.randint(1, 3))
        if edges[-1][1] == v:
            left = PathWord(base.base, base.edges + edges)
            return triple(pair, left, rng.randint(-3, 3), base)
    return None


class TestIntegralityTrace:
    """u(v)^l moves no letter of a point exactly while the trace
    K_j = l . prod B/A along the point stays integral, and then K_j is the
    residual carried past the j-th letter."""

    def test_trace_values(self):
        x = loop_point(D2)
        assert integrality_trace(D2, 1, x.unfold(3).edges) == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        ]

    def test_zero_exponent_always_fixed(self):
        x = loop_point(D2)
        assert image_point(D2, unitary(D2, 1, 0), x) == x

    def test_half_ratio_never_fixed(self):
        x = loop_point(D2)
        assert image_point(D2, unitary(D2, 1), x) != x

    def test_b_multiple_of_a_fixed(self):
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[4, 2], [2, 4]])
        x = eventually_periodic(PathWord(1), PathWord(1, ((1, 2, 1), (2, 1, 1))))
        assert image_point(pair, unitary(pair, 1), x) == x

    def test_agrees_with_sampled_trace(self):
        rng = random.Random(44)
        for _ in range(400):
            pair = random_pair(rng, n_max=3, a_max=3)
            x = _random_point(rng, pair)
            l = rng.randint(-5, 5)
            image = act_on_periodic(pair, unitary(pair, x.preperiod.base, l), x, 50)
            sampled = integrality_trace(pair, l, x.unfold(50).edges)
            assert (image == x.unfold(50)) == all(k.denominator == 1 for k in sampled)


class TestFixedCylinder:
    def test_halving_loop_has_none(self):
        assert has_fixed_cylinder(D2, 1, 1).value == "no"

    def test_zero_b_entry_gives_cylinder(self):
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        res = has_fixed_cylinder(pair, 1, 2)
        assert res.value == "yes"
        assert res.witness is not None

    def test_unit_matrix_entries_give_cylinder(self):
        pair = MatrixPair.from_rows([[1, 1], [1, 1]], [[3, -2], [5, 7]])
        for l in (1, -1, 2, 5):
            assert has_fixed_cylinder(pair, 1, l).value == "yes"

    def test_ratio_one_loop(self):
        pair = MatrixPair.from_rows([[2]], [[2]])
        assert has_fixed_cylinder(pair, 1, 1).value == "yes"

    def test_witness_is_certified(self):
        # every point extending the witness is fixed: spot-check via traces
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        res = has_fixed_cylinder(pair, 1, 2)
        rng = random.Random(45)
        w = res.witness
        for _ in range(20):
            ext = random_walk(rng, pair, w.target if w.edges else 1, 30)
            ks = integrality_trace(pair, 2, w.edges + ext)
            assert all(k.denominator == 1 for k in ks)

    def test_zero_probe_rejected(self):
        with pytest.raises(DomainError):
            has_fixed_cylinder(D2, 1, 0)

    def test_unbounded_integral_growth_is_unknown(self):
        # ratios 3/2 and 4/3 let the trace grow without bound along integral
        # branches, so the state graph never closes under the cap
        pair = MatrixPair.from_rows([[2, 3], [3, 2]], [[3, 4], [4, 3]])
        assert has_fixed_cylinder(pair, 1, 6, state_cap=64).value == "unknown"

    def test_cap_semantics(self):
        # the zero-trace state is the third state discovered: below that the
        # search answers unknown, at it the certificate fires
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        assert has_fixed_cylinder(pair, 1, 2, state_cap=2).value == "unknown"
        assert has_fixed_cylinder(pair, 1, 2, state_cap=3).value == "yes"


class TestGermEquality:
    def test_reflexive(self):
        x = loop_point(E1)
        s = generator_s(E1, 1, 1, 1)
        assert germ_equal(E1, s, s, x) == "equal"

    def test_collapsed_unitary_equals_projection(self):
        pair = MatrixPair.from_rows([[1]], [[0]])
        x = loop_point(pair)
        assert germ_equal(pair, unitary(pair, 1), projection_q(pair, 1), x) == "equal"

    def test_distinct_prepends(self):
        x = loop_point(E1)
        assert germ_equal(E1, generator_s(E1, 1, 1, 1), generator_s(E1, 1, 1, 2), x) == "not-equal"

    def test_unitary_vs_projection_nontrivial_isotropy(self):
        # ratio 1 keeps the residual alive forever: germs differ
        pair = MatrixPair.from_rows([[2]], [[2]])
        x = loop_point(pair)
        assert germ_equal(pair, unitary(pair, 1), projection_q(pair, 1), x) == "not-equal"

    def test_domain_violation(self):
        x = loop_point(E1, vertex=1)
        with pytest.raises(DomainError):
            germ_equal(E1, projection_q(E1, 2), projection_q(E1, 1), x)

    def test_second_argument_outside_domain(self):
        x = loop_point(E1, vertex=1)
        with pytest.raises(DomainError, match="^point lies outside the element's domain$"):
            germ_equal(E1, projection_q(E1, 1), projection_q(E1, 2), x)

    def test_zero_carries_no_germ(self):
        x = loop_point(E1, vertex=1)
        for s, t in ((ZERO, projection_q(E1, 1)), (projection_q(E1, 1), ZERO)):
            with pytest.raises(DomainError, match="^zero carries no germ$"):
                germ_equal(E1, s, t, x)

    def test_eventual_equality_found(self):
        # u(1) and q(1) agree after cutting to a cylinder through the B=0 arc
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        x = eventually_periodic(PathWord(1, ((1, 2, 1),)), PathWord(2, ((2, 2, 2),)))
        # after the (1,2) edge with B=0, the pushed exponent dies
        assert germ_equal(pair, unitary(pair, 1, 2), projection_q(pair, 1), x) == "equal"

    def test_equality_past_the_period_boundary(self):
        # the exponent-killing B=0 arc sits inside the period, so the first
        # agreement shows up only after entering the periodic part
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        x = eventually_periodic(
            PathWord(1, ((1, 1, 1), (1, 1, 2))),
            PathWord(1, ((1, 2, 1), (2, 1, 1))),
        )
        assert germ_equal(pair, unitary(pair, 1, 4), projection_q(pair, 1), x) == "equal"

    def test_depth_cap_reports_unknown(self):
        # a scan capped below the equality depth leaves the comparison open;
        # the one-depth comparison settles it
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        x = eventually_periodic(
            PathWord(1, ((1, 1, 1), (1, 1, 2))),
            PathWord(1, ((1, 2, 1), (2, 1, 1))),
        )
        s, t = unitary(pair, 1, 4), projection_q(pair, 1)
        assert capped_germ_equal(pair, s, t, x, depth_cap=1) == "unknown"
        assert germ_equal(pair, s, t, x) == "equal"

    def test_equality_past_the_old_cap(self):
        # u(1)^(2^40) halves its residual along each (1,1,1) and loses it on
        # the B=0 arc (1,2,1): the germs first agree at depth 41
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        x = eventually_periodic(
            PathWord(1, ((1, 1, 1),) * 40 + ((1, 2, 1),)), PathWord(2, ((2, 2, 2),))
        )
        s, t = unitary(pair, 1, 2**40), projection_q(pair, 1)
        assert capped_germ_equal(pair, s, t, x, depth_cap=40) == "unknown"
        assert capped_germ_equal(pair, s, t, x, depth_cap=41) == "equal"
        assert germ_equal(pair, s, t, x) == "equal"

    def test_growing_residual_is_not_equal(self):
        # B/A = 2 doubles the residual forever; no cap settles it
        pair = MatrixPair.from_rows([[1]], [[2]])
        x = loop_point(pair)
        s, t = unitary(pair, 1), projection_q(pair, 1)
        assert capped_germ_equal(pair, s, t, x, depth_cap=300) == "unknown"
        assert germ_equal(pair, s, t, x) == "not-equal"


class TestGermOracle:
    """`germ_equal` against the capped scan of every cylinder depth."""

    def _case(self, rng):
        while True:
            # B=0 arcs and negative B entries both occur
            pair = random_pair(rng, n_max=3, a_max=2, b_max=2)
            try:
                x = _random_point(rng, pair)
                break
            except AssertionError:
                continue
        s = _element_at_point(rng, pair, x)
        roll = rng.random()
        if roll < 0.4:  # s cut down to a cylinder around x
            w = x.unfold(rng.randint(0, 4))
            t = multiply(pair, s, triple(pair, w, 0, w))
        elif roll < 0.7:  # the same words with another exponent
            t = triple(pair, s.left, s.exponent + rng.choice((-1, 1)) * rng.randint(1, 4), s.right)
        else:
            t = _element_at_point(rng, pair, x)
        return pair, s, t, x

    def test_agrees_with_capped_scan(self):
        rng = random.Random(51)
        seen = Counter()
        for _ in range(3000):
            pair, s, t, x = self._case(rng)
            capped = capped_germ_equal(pair, s, t, x)
            exact = germ_equal(pair, s, t, x)
            seen[capped] += 1
            if capped != "unknown":
                assert exact == capped
                continue
            assert exact == "not-equal"
            # s.e_d = t.e_d at some d <= 300 would give it at 300 too,
            # since e_d.e_300 = e_300
            w = x.unfold(300)
            e = triple(pair, w, 0, w)
            assert multiply(pair, s, e) != multiply(pair, t, e)
        assert min(seen[v] for v in ("equal", "not-equal", "unknown")) >= 100


class TestImagePoint:
    def test_unitary_image(self):
        x = loop_point(D2)
        img = image_point(D2, unitary(D2, 1), x)
        assert img == eventually_periodic(PathWord(1, ((1, 1, 2),)), PathWord(1, ((1, 1, 1),)))

    def test_outside_domain(self):
        assert image_point(E1, projection_q(E1, 2), loop_point(E1, 1)) == ZERO

    def test_zero(self):
        assert image_point(E1, ZERO, loop_point(E1, 1)) == ZERO

    def test_matches_prefix_action(self):
        rng = random.Random(46)
        checked = 0
        for _ in range(300):
            pair = random_pair(rng, n_max=3, a_max=2, ensure_e=True)
            x = _random_point(rng, pair)
            s = _element_at_point(rng, pair, x)
            try:
                img = image_point(pair, s, x, cap=64)
            except Exception:
                continue
            if isinstance(img, Zero):
                continue
            depth = rng.randint(1, 12)
            assert img.unfold(depth) == act_on_periodic(pair, s, x, depth)
            checked += 1
        assert checked > 150

    def test_unit_loop_with_growing_residual(self):
        # the residual doubles each copy, but A = 1 forces every offset
        pair = MatrixPair.from_rows([[1, 1], [1, 1]], [[2, 1], [1, 1]])
        x = loop_point(pair, 1)
        s = unitary(pair, 1)
        assert image_point(pair, s, x) == x
        assert x.unfold(64) == act_on_periodic(pair, s, x, 64)

    def test_unit_cycles_against_prefix_action(self):
        rng = random.Random(48)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            cycle = [v + 1 for v in rng.sample(range(n), rng.randint(1, n))]
            arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
            for i, j in arcs:
                a[i - 1][j - 1] = 1
            for row in a:
                if not any(row):
                    row[rng.randrange(n)] = rng.randint(1, 2)
            # |B| >= 2 keeps the residual growing around the cycle
            b = [[rng.choice([-3, -2, 2, 3]) if x else 0 for x in row] for row in a]
            pair = MatrixPair.from_rows(a, b)
            v = cycle[0]
            back = random_backward_walk(rng, pair, v, rng.randint(0, 2))
            pre = PathWord(back[0][0] if back else v, back)
            x = eventually_periodic(pre, PathWord(v, tuple((i, j, 1) for i, j in arcs)))
            s = _element_at_point(rng, pair, x)
            img = image_point(pair, s, x)
            assert img.unfold(64) == act_on_periodic(pair, s, x, 64)


def _element_at_point(rng, pair, x):
    """Random element whose domain contains x."""
    k = rng.randint(0, 3)
    right = x.unfold(k)
    left_edges = random_walk(rng, pair, right.target, rng.randint(0, 2))
    # left must END at right.target, so walk backwards instead
    from conftest import random_backward_walk

    back = random_backward_walk(rng, pair, right.target, rng.randint(0, 2))
    base = back[0][0] if back else right.target
    left = PathWord(base, back)
    return triple(pair, left, rng.randint(-2, 2), right)


class TestCylinders:
    def test_nesting_is_prefix_order(self):
        g1 = PathWord(1, ((1, 1, 1), (1, 2, 1)))
        g2 = PathWord(1, ((1, 1, 1),))
        assert is_prefix(g2, g1)
        assert not is_prefix(g1, g2)
        assert is_prefix(g1, g1)
        assert not is_prefix(g2, PathWord(1, ((1, 1, 2),)))

    def test_subset_agrees_with_pointwise(self):
        rng = random.Random(50)
        for _ in range(200):
            pair = random_pair(rng, n_max=3, a_max=2)
            gamma = random_path_word(rng, pair, max_len=3)
            delta = random_path_word(rng, pair, max_len=3)
            claimed = is_prefix(delta, gamma)
            # sample extensions of gamma; all must pass through delta iff subset
            ok = True
            for _ in range(15):
                ext = gamma.edges + random_walk(rng, pair, gamma.target, 4)
                full = PathWord(gamma.base, ext) if gamma.edges or True else None
                passes = (
                    full.base == delta.base
                    and full.edges[: len(delta.edges)] == delta.edges
                )
                ok = ok and passes
            if claimed:
                assert ok
            elif len(delta) <= len(gamma):
                assert not ok
