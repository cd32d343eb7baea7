import random

import pytest

from katsura.errors import StructuralError
from katsura.invsemigroup import (
    PathWord,
    Triple,
    ZERO,
    is_idempotent,
    multiply,
    push_unitary,
    star,
    triple,
)
from katsura.matrices import MatrixPair
from katsura.semigroupoid import HPower, lcm as sgp_lcm

from conftest import random_pair, random_path_word
from oracles import generator_s, projection_q, unitary

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])


class TestPushUnitary:
    def test_carry_on_unit_arc(self):
        assert push_unitary(E1, 1, 1, ((1, 2, 1),)) == (((1, 2, 1),), 1)

    def test_zero_exponent_is_identity(self):
        p = ((1, 1, 2), (1, 2, 1))
        assert push_unitary(E1, 1, 0, p) == (p, 0)

    def test_no_carry_inside_window(self):
        assert push_unitary(E1, 1, 1, ((1, 1, 1),)) == (((1, 1, 2),), 0)

    def test_vertex_mismatch(self):
        with pytest.raises(StructuralError):
            push_unitary(E1, 2, 1, ((1, 1, 1),))


def flatten(pair, vertex, lead, edges, trail):
    """Independent normal form: absorb the leading exponent into the first
    offset, then sweep offsets into range left to right, accumulating the
    final carry onto the trailing exponent."""
    work = [list(e) for e in edges]
    if work:
        i, j, _ = work[0]
        work[0][2] += lead * pair.b_at(i, j)
    else:
        trail += lead
    for pos in range(len(work)):
        i, j, n = work[pos]
        a = pair.a_at(i, j)
        m = (n - 1) % a + 1
        c = (n - m) // a
        work[pos][2] = m
        if pos + 1 < len(work):
            i2, j2, _ = work[pos + 1]
            work[pos + 1][2] += c * pair.b_at(i2, j2)
        else:
            trail += c
    return tuple(tuple(e) for e in work), trail


class TestPushSoundness:
    def test_flatten_agreement(self):
        rng = random.Random(31)
        for _ in range(400):
            pair = random_pair(rng, n_max=3, a_max=3)
            p = random_path_word(rng, pair, max_len=4)
            t = rng.randint(-6, 6)
            pushed, residual = push_unitary(pair, p.base, t, p.edges)
            assert flatten(pair, p.base, t, p.edges, 0) == flatten(
                pair, p.base, 0, pushed, residual
            )


class TestMultiply:
    def test_orthogonal_projections(self):
        assert multiply(E1, projection_q(E1, 1), projection_q(E1, 2)) == ZERO

    def test_star_s_s(self):
        s = generator_s(E1, 1, 2, 1)
        assert multiply(E1, star(s), s) == projection_q(E1, 2)

    def test_unitary_shifts_generator(self):
        out = multiply(E1, unitary(E1, 1), generator_s(E1, 1, 1, 1))
        assert out == generator_s(E1, 1, 1, 2)

    def test_orthogonal_offsets(self):
        a = generator_s(E1, 1, 1, 1)
        b = generator_s(E1, 1, 1, 2)
        assert multiply(E1, star(a), b) == ZERO

    def test_zero_absorbs(self):
        s = generator_s(E1, 1, 2, 1)
        assert multiply(E1, ZERO, s) == ZERO
        assert multiply(E1, s, ZERO) == ZERO


class TestStar:
    def test_projections_self_adjoint(self):
        q = projection_q(E1, 1)
        assert star(q) == q

    def test_generator_adjoint(self):
        s = generator_s(E1, 1, 2, 1)
        assert star(s) == Triple(PathWord(2), 0, PathWord(1, ((1, 2, 1),)))

    def test_sign_flip(self):
        x = triple(E1, PathWord(1, ((1, 2, 1),)), 3, PathWord(2, ((2, 2, 1),)))
        assert star(x) == Triple(x.right, -3, x.left)
        assert star(star(x)) == x


class TestIdempotents:
    def test_q_is_idempotent(self):
        assert is_idempotent(projection_q(E1, 1))
        assert is_idempotent(ZERO)
        assert not is_idempotent(unitary(E1, 1))

    def test_range_projection_of_generator(self):
        s = generator_s(E1, 1, 2, 1)
        p = multiply(E1, s, star(s))
        assert p == Triple(PathWord(1, ((1, 2, 1),)), 0, PathWord(1, ((1, 2, 1),)))

    def test_source_projection_forgets_exponent(self):
        x = triple(E1, PathWord(1, ((1, 2, 1),)), 5, PathWord(2, ((2, 2, 1),)))
        assert multiply(E1, star(x), x) == Triple(x.right, 0, x.right)

    def test_zero_b_row_collapses_unitary(self):
        pair = MatrixPair.from_rows([[1]], [[0]])
        u = triple(pair, PathWord(1), 7, PathWord(1))
        assert u == Triple(PathWord(1), 0, PathWord(1)) == unitary(pair, 1, 7) == projection_q(pair, 1)
        assert is_idempotent(u)


def _projection_of_sgp(pair, elem):
    """Range projection of the isometry an element maps to: fold the final
    offset into range and keep only the reduced path word."""
    if isinstance(elem, HPower):
        return projection_q(pair, elem.vertex)
    edges = list(elem.edges)
    i, j, n = edges[-1]
    a = pair.a_at(i, j)
    edges[-1] = (i, j, (n - 1) % a + 1)
    word = PathWord(edges[0][0], tuple(edges))
    return triple(pair, word, 0, word)


class TestSemilattice:
    def test_products_follow_lcm(self):
        rng = random.Random(33)
        from conftest import random_sgp

        for _ in range(400):
            pair = random_pair(rng, n_max=3, a_max=2)
            f = random_sgp(rng, pair, max_len=3)
            g = random_sgp(rng, pair, max_len=3)
            pf = _projection_of_sgp(pair, f)
            pg = _projection_of_sgp(pair, g)
            prod = multiply(pair, pf, pg)
            m = sgp_lcm(pair, f, g)
            assert prod == (ZERO if m is None else _projection_of_sgp(pair, m))

    def test_dominated_by_base_projection(self):
        rng = random.Random(34)
        from conftest import random_sgp
        from katsura.semigroupoid import source as sgp_source

        for _ in range(200):
            pair = random_pair(rng, n_max=3, a_max=2)
            f = random_sgp(rng, pair, max_len=3)
            pf = _projection_of_sgp(pair, f)
            for i in pair.vertices:
                dominated = multiply(pair, projection_q(pair, i), pf) == pf
                assert dominated == (sgp_source(f) == i)
