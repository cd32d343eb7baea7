import random
import time

import pytest

from katsura.errors import ExprParseError, SemanticError, StructuralError
from katsura.invsemigroup import (
    PathWord,
    Triple,
    ZERO,
    multiply,
    projection_q,
    source_projection,
    star,
    unitary,
)
from katsura.ktheory import AbelianGroup
from katsura.matrices import MatrixPair
from katsura.parsing import (
    format_finite_path,
    format_group,
    format_isg,
    format_periodic_path,
    format_semigroupoid,
    parse_element,
    parse_finite_path,
    parse_group,
    parse_isg,
    parse_matrix_file,
    parse_periodic_path,
    parse_semigroupoid,
)
from katsura.semigroupoid import GWord, HPower

from conftest import random_isg, random_pair, random_sgp

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])


class TestMatrixFiles:
    def test_ok(self):
        pair = parse_matrix_file(b'{"N":1,"A":[[2]],"B":[[1]]}')
        assert pair == MatrixPair.from_rows([[2]], [[1]])

    def test_dimension_error(self):
        with pytest.raises(StructuralError):
            parse_matrix_file(b'{"N":2,"A":[[2,1]],"B":[[1,1],[1,1]]}')

    def test_condition_0_violation(self):
        with pytest.raises(StructuralError, match="row 1 of A is zero"):
            parse_matrix_file(b'{"N":1,"A":[[0]],"B":[[0]]}')

    def test_malformed_json(self):
        with pytest.raises(ExprParseError):
            parse_matrix_file(b'{"N": 1,')

    def test_boolean_entries_rejected(self):
        with pytest.raises(StructuralError):
            parse_matrix_file(b'{"N":1,"A":[[true]],"B":[[0]]}')

    def test_missing_keys(self):
        with pytest.raises(StructuralError, match="lacks keys"):
            parse_matrix_file(b'{"N":1,"A":[[2]]}')

    def test_non_utf8_is_a_parse_error(self):
        with pytest.raises(ExprParseError, match="UTF-8"):
            parse_matrix_file(b'{"N":1,\xff"A":[[2]],"B":[[1]]}')


class TestSemigroupoidGrammar:
    def test_normalizes_on_parse(self):
        assert parse_semigroupoid("g(1,1,3).g(1,2,1)", E1) == GWord(((1, 1, 1), (1, 2, 2)))

    def test_h_power(self):
        assert parse_semigroupoid("h(2)^3", E1) == HPower(2, 3)

    def test_whitespace_tolerated(self):
        assert parse_semigroupoid(" g(1,2,1) . h(2) ", E1) == GWord(((1, 2, 2),))

    def test_vertex_out_of_range(self):
        with pytest.raises(SemanticError, match="vertex 3 out of range"):
            parse_semigroupoid("h(3)", E1)

    def test_arc_off_support(self):
        pair = MatrixPair.from_rows([[2, 0], [1, 2]], [[1, 0], [1, 1]])
        with pytest.raises(SemanticError, match="not a support arc"):
            parse_semigroupoid("g(1,2,1)", pair)

    def test_parse_error_position(self):
        with pytest.raises(ExprParseError) as err:
            parse_semigroupoid("g(1,1,", E1)
        assert err.value.position == 6

    def test_round_trip(self):
        rng = random.Random(81)
        for _ in range(200):
            pair = random_pair(rng, n_max=3, a_max=3)
            e = random_sgp(rng, pair, max_len=4)
            assert parse_semigroupoid(format_semigroupoid(e), pair) == e


class TestIsgGrammar:
    def test_generator_with_unitary(self):
        elem = parse_isg("s(1,1,1).u(1)^2", E1)
        assert elem == Triple(PathWord(1, ((1, 1, 1),)), 2, PathWord(1))

    def test_zero(self):
        assert parse_isg("0", E1) == ZERO

    def test_star_group(self):
        elem = parse_isg("(s(1,1,1).u(1))*", E1)
        assert elem == Triple(PathWord(1), -1, PathWord(1, ((1, 1, 1),)))

    def test_out_of_range_offset_folds(self):
        assert parse_isg("s(1,1,3)", E1) == Triple(PathWord(1, ((1, 1, 1),)), 1, PathWord(1))

    def test_orthogonality_collapses_to_zero(self):
        assert parse_isg("s(1,1,1)*.s(1,1,2)", E1) == ZERO

    def test_negative_power(self):
        assert parse_isg("u(2)^-3", E1) == unitary(E1, 2, -3)

    def test_q_round_trip(self):
        q = projection_q(E1, 2)
        assert format_isg(q) == "q(2)"
        assert parse_isg("q(2)", E1) == q

    def test_round_trip(self):
        rng = random.Random(82)
        for _ in range(300):
            pair = random_pair(rng, n_max=3, a_max=3)
            e = random_isg(rng, pair)
            assert parse_isg(format_isg(e), pair) == e

    def test_semantic_error_names_atom(self):
        with pytest.raises(SemanticError, match="vertex 3"):
            parse_isg("s(1,3,1)", E1)

    def test_power_equals_repeated_product(self):
        rng = random.Random(84)
        for _ in range(40):
            pair = random_pair(rng, n_max=3, a_max=3)
            e = random_isg(rng, pair, max_len=3, t_max=3)
            text = format_isg(e)
            for k in range(-12, 13):
                base = e if k > 0 else star(e)
                expected = source_projection(pair, e) if k == 0 else base
                for _ in range(abs(k) - 1):
                    expected = multiply(pair, expected, base)
                assert parse_isg(f"({text})^{k}", pair) == expected, (text, k)

    def test_huge_unitary_power(self):
        pair = MatrixPair.from_rows([[2]], [[1]])
        start = time.perf_counter()
        assert parse_isg("u(1)^100000000", pair) == unitary(pair, 1, 10**8)
        assert time.perf_counter() - start < 1.0


class TestElementDispatch:
    def test_sgp_by_prefix(self):
        assert isinstance(parse_element("h(1)", E1), HPower)
        assert isinstance(parse_element("g(1,1,1)", E1), GWord)

    def test_isg_otherwise(self):
        assert isinstance(parse_element("q(1)", E1), Triple)


class TestPathLiterals:
    def test_finite(self):
        p = parse_finite_path("[(1,1,1), (1,2,1)]", E1)
        assert p == PathWord(1, ((1, 1, 1), (1, 2, 1)))

    def test_empty_needs_base(self):
        assert parse_finite_path("[]@2", E1) == PathWord(2)
        with pytest.raises(ExprParseError):
            parse_finite_path("[]", E1)

    def test_offset_range_checked(self):
        with pytest.raises(SemanticError, match="offset 3 out of range"):
            parse_finite_path("[(1,1,3)]", E1)

    def test_periodic(self):
        x = parse_periodic_path("[] ~ [(1,1,1)]", E1)
        assert x.preperiod == PathWord(1) and x.period == PathWord(1, ((1, 1, 1),))

    def test_periodic_canonicalizes(self):
        x = parse_periodic_path("[] ~ [(1,1,1), (1,1,1)]", E1)
        assert len(x.period) == 1

    def test_round_trip(self):
        rng = random.Random(83)
        from conftest import random_path_word

        for _ in range(100):
            pair = random_pair(rng, n_max=3, a_max=3)
            p = random_path_word(rng, pair, max_len=4)
            assert parse_finite_path(format_finite_path(p), pair) == p

    def test_periodic_round_trip(self):
        x = parse_periodic_path("[(1,2,1)] ~ [(2,2,1), (2,1,1), (1,2,1)]", E1)
        assert parse_periodic_path(format_periodic_path(x), E1) == x


class TestGroupGrammar:
    def test_examples(self):
        assert parse_group("0") == AbelianGroup(0, ())
        assert parse_group("Z") == AbelianGroup(1, ())
        assert parse_group("Z^2 + Z/2 + Z/6") == AbelianGroup(2, (2, 6))

    def test_normalizes_primary_form(self):
        assert parse_group("Z/2 + Z/3") == AbelianGroup(0, (6,))

    def test_format(self):
        assert format_group(AbelianGroup(0, ())) == "0"
        assert format_group(AbelianGroup(1, ())) == "Z"
        assert format_group(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"

    def test_round_trip(self):
        for g in (
            AbelianGroup(0, ()),
            AbelianGroup(3, ()),
            AbelianGroup(1, (2, 2, 4)),
            AbelianGroup(0, (5,)),
        ):
            assert parse_group(format_group(g)) == g

    def test_zero_mixed_rejected(self):
        with pytest.raises(SemanticError):
            parse_group("0 + Z")

    def test_junk_rejected(self):
        with pytest.raises(ExprParseError):
            parse_group("Z/2 + Q")

    def test_large_prime_order_is_not_factored(self):
        start = time.perf_counter()
        assert parse_group("Z/1000000000000000000000000000057") == AbelianGroup(
            0, (1000000000000000000000000000057,)
        )
        assert time.perf_counter() - start < 1.0
