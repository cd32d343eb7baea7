import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from katsura.errors import LETTER_BUDGET, DomainError, ExprParseError, KatsuraError, SemanticError, StructuralError
from katsura.invsemigroup import (
    ISgElement,
    PathWord,
    Triple,
    ZERO,
    Zero,
    multiply,
    star,
    triple,
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

from conftest import random_backward_walk, random_isg, random_pair, random_sgp, random_walk
from oracles import pairwise_multiply, projection_q, unitary

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

    @pytest.mark.parametrize("doc", [b"[1]", b"2", b'"N"', b"null"])
    def test_document_that_is_not_an_object(self, doc):
        with pytest.raises(StructuralError, match="matrix file must be a JSON object"):
            parse_matrix_file(doc)

    @pytest.mark.parametrize("n", ["0", "-1", "true", '"2"', "1.5"])
    def test_n_that_is_not_a_positive_integer(self, n):
        with pytest.raises(StructuralError, match="N must be a positive integer, got "):
            parse_matrix_file(f'{{"N":{n},"A":[[2]],"B":[[1]]}}'.encode())


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
                assert parse_isg(f"({text})^{k}", pair) == oracle_power(pair, e, k), (text, k)

    def test_huge_unitary_power(self):
        pair = MatrixPair.from_rows([[2]], [[1]])
        start = time.perf_counter()
        assert parse_isg("u(1)^100000000", pair) == unitary(pair, 1, 10**8)
        assert time.perf_counter() - start < 1.0


def oracle_power(pair: MatrixPair, x: ISgElement, k: int) -> ISgElement:
    """x^k as |k| - 1 pairwise products; x^0 is the source projection."""
    if isinstance(x, Zero):
        return ZERO
    if k == 0:
        return triple(pair, x.right, 0, x.right)
    base = x if k > 0 else star(x)
    out = base
    for _ in range(abs(k) - 1):
        out = pairwise_multiply(pair, out, base)
    return out


def oracle_fold(pair: MatrixPair, values) -> ISgElement:
    out = values[0]
    for v in values[1:]:
        out = pairwise_multiply(pair, out, v)
    return out


def random_factor(rng: random.Random, pair: MatrixPair, cur: ISgElement, depth: int) -> tuple[str, ISgElement]:
    """The text and value of a random factor, most often one whose path word
    is comparable with the adjoint word of `cur`, so that products stay
    nonzero for a while."""
    if isinstance(cur, Zero) or rng.random() < 0.02:
        cur = random_isg(rng, pair)
    j = cur.right
    r = rng.random()
    if r < 0.01:
        return "0", ZERO
    if r < 0.25:  # s(i,j,n), the offset often out of range
        into = random_backward_walk(rng, pair, j.base, 1)
        starred = into and rng.random() < 0.3
        if starred:  # an edge into the base of J
            i, w, n = into[0]
        else:  # the first edge of J
            i, w, n = j.edges[0] if j.edges else random_walk(rng, pair, j.base, 1)[0]
        a = pair.a_at(i, w)
        if rng.random() < 0.2:
            n = rng.randint(1, a)
        n += a * rng.randint(-2, 2)
        carry, m = divmod(n - 1, a)
        value = triple(pair, PathWord(i, ((i, w, m + 1),)), carry, PathWord(w))
        return (f"s({i},{w},{n})*", star(value)) if starred else (f"s({i},{w},{n})", value)
    if r < 0.35:
        k = rng.randint(-9, 9)
        return f"u({j.base})^{k}", unitary(pair, j.base, k)
    if r < 0.4:
        return f"q({j.base})", projection_q(pair, j.base)
    if r < 0.55 and depth < 3:
        text, value = random_chain(rng, pair, cur, depth + 1)
        k = rng.choice([None, "*", -3, -1, 0, 1, 2, 3])
        if k is None or isinstance(value, Zero):
            return f"({text})", value
        # x.x* keeps the path word of x under * and under powers
        text, value = f"{text}.({text})*", pairwise_multiply(pair, value, star(value))
        if k == "*":
            return f"({text})*", star(value)
        return f"({text})^{k}", oracle_power(pair, value, k)
    # a whole element whose path word is a prefix or an extension of J
    cut = rng.randint(0, len(j.edges))
    left_edges = j.edges[:cut]
    if cut == len(j.edges):
        left_edges += random_walk(rng, pair, j.target, rng.randint(0, 3))
    left = PathWord(j.base, left_edges)
    if rng.random() < 0.25:  # s_K u^t s_K* has nonzero powers of every order
        value, k = triple(pair, left, rng.randint(-3, 3), left), rng.randint(-3, 3)
        return f"({format_isg(value)})^{k}", oracle_power(pair, value, k)
    right_edges = random_backward_walk(rng, pair, left.target, rng.randint(0, 4))
    right = PathWord(right_edges[0][0] if right_edges else left.target, right_edges)
    value = triple(pair, left, rng.randint(-7, 7), right)
    if rng.random() < 0.3:
        return f"({format_isg(star(value))})*", value
    return f"({format_isg(value)})", value


def random_chain(rng: random.Random, pair: MatrixPair, cur: ISgElement, depth: int = 0) -> tuple[str, ISgElement]:
    texts, values = [], []
    for _ in range(rng.randint(1, 6 if depth else 16)):
        text, value = random_factor(rng, pair, cur, depth)
        texts.append(text)
        values.append(value)
        cur = oracle_fold(pair, [cur, value])
    return rng.choice([".", " . ", ".\t"]).join(texts), oracle_fold(pair, values)


def with_zero_b_row(rng: random.Random, pair: MatrixPair) -> MatrixPair:
    v = rng.randrange(pair.n)
    return MatrixPair.from_rows(pair.a, [[0] * pair.n if i == v else row for i, row in enumerate(pair.b)])


class TestProductFold:
    """The factor-by-factor fold behind `parse_isg` and `multiply` against
    the product of whole elements in tests/oracles.py."""

    def test_parse_isg_equals_oracle_fold(self):
        rng = random.Random(121)
        zeros = nonzeros = 0
        for trial in range(400):
            pair = random_pair(rng, n_max=3, a_max=3, b_max=3)
            if trial % 4 == 0:
                pair = with_zero_b_row(rng, pair)
            text, expected = random_chain(rng, pair, random_isg(rng, pair))
            assert parse_isg(text, pair) == expected, (pair, text)
            zeros += isinstance(expected, Zero)
            nonzeros += not isinstance(expected, Zero)
        assert zeros > 100 and nonzeros > 200, (zeros, nonzeros)

    def test_multiply_equals_pairwise_product(self):
        rng = random.Random(122)
        for trial in range(600):
            pair = random_pair(rng, n_max=3, a_max=3, b_max=3)
            if trial % 4 == 0:
                pair = with_zero_b_row(rng, pair)
            x = random_isg(rng, pair, max_len=5, t_max=9)
            _, y = random_factor(rng, pair, x, 0)
            for a, b in ((x, y), (y, x), (x, star(x)), (star(x), x), (x, ZERO), (ZERO, y)):
                assert multiply(pair, a, b) == pairwise_multiply(pair, a, b), (pair, a, b)


D2 = MatrixPair.from_rows([[2]], [[1]])
D1 = MatrixPair.from_rows([[1]], [[1]])
LONG_CHAINS = [(D2, "s(1,1,1)"), (D2, "s(1,1,2).u(1)^-1"), (D1, "s(1,1,1)*.u(1)")]


class TestLinearChains:
    """A product of n one-letter factors parses in time linear in n."""

    @pytest.mark.parametrize("pair, unit", LONG_CHAINS)
    def test_equals_oracle_fold(self, pair, unit):
        factors = [parse_isg(f, pair) for f in unit.split(".")] * 500
        assert parse_isg(".".join([unit] * 500), pair) == oracle_fold(pair, factors)

    @pytest.mark.parametrize("pair, unit", LONG_CHAINS)
    def test_letter_budget_chain_under_5s(self, pair, unit):
        start = time.perf_counter()
        elem = parse_isg(".".join([unit] * LETTER_BUDGET), pair)
        assert time.perf_counter() - start < 5.0
        assert len(elem.left) + len(elem.right) == LETTER_BUDGET
        with pytest.raises(DomainError, match="letter budget"):
            parse_isg(".".join([unit] * (LETTER_BUDGET + 1)), pair)


class TestElementDispatch:
    def test_sgp_by_prefix(self):
        assert isinstance(parse_element("h(1)", E1), HPower)
        assert isinstance(parse_element("g(1,1,1)", E1), GWord)

    @pytest.mark.parametrize("space", [" ", "\t", " \t ", "\t\t"])
    def test_leading_whitespace_is_spaces_and_tabs(self, space):
        assert parse_element(space + "h(1)", E1) == HPower(1, 1)
        assert parse_element(space + "g(1,1,1)", E1) == GWord(((1, 1, 1),))
        assert parse_element(space + "q(1)", E1) == projection_q(E1, 1)

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

    @pytest.mark.parametrize("text", ["[] ~ []", "[(1,1,1)] ~ []", "[]@2 ~ []"])
    def test_empty_period(self, text):
        with pytest.raises(SemanticError, match="the periodic part must be nonempty"):
            parse_periodic_path(text, E1)

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

    # a periodic literal reads the @v suffix of its preperiod by the rule of a finite literal
    @pytest.mark.parametrize("tail", ["", " ~ [(1,1,1)]"])
    def test_base_suffix_contradicting_first_edge(self, tail):
        parse = parse_periodic_path if tail else parse_finite_path
        with pytest.raises(SemanticError, match=r"declared base 2 contradicts first edge \(1, 1, 1\)"):
            parse("[(1,1,1)]@2" + tail, E1)
        assert parse("[(1,1,1)]@1" + tail, E1) == parse("[(1,1,1)]" + tail, E1)

    @pytest.mark.parametrize("tail", ["", " ~ [(1,1,1)]"])
    def test_empty_literal_vertex_out_of_range(self, tail):
        parse = parse_periodic_path if tail else parse_finite_path
        with pytest.raises(SemanticError, match=r"vertex 7 out of range 1\.\.2 \(at offset 4 in"):
            parse("[]@7" + tail, E1)


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


# For every grammar, a few texts (most with an error), and the outcome of
# each truncation text[:k]: the formatted value, or the exception's type
# with, for a parse error, its position and expectation, and otherwise its
# message.  The first texts were recorded from a character-by-character
# scanner; the texts from 's(1,1,1)**.u(1)^2^3' on, at the edges of the
# product loops' patterns (a second postfix, whitespace before `.`, `*` and
# `^`, a bad middle factor), from the reader before those loops.  Every
# reader since must agree exactly.
PARSERS = {
    "isg": lambda t: format_isg(parse_isg(t, E1)),
    "semigroupoid": lambda t: format_semigroupoid(parse_semigroupoid(t, E1)),
    "finite path": lambda t: format_finite_path(parse_finite_path(t, E1)),
    "periodic path": lambda t: format_periodic_path(parse_periodic_path(t, E1)),
    "group": lambda t: format_group(parse_group(t)),
}


def outcome(grammar: str, text: str) -> tuple:
    try:
        return ("ok", None, PARSERS[grammar](text))
    except ExprParseError as exc:
        return ("ExprParseError", exc.position, exc.expected)
    except KatsuraError as exc:
        return (type(exc).__name__, None, str(exc))


PARSE_CONTRACT = [
    ('isg', 's(1,2,1).u(2)^-3.s(1, 2,2)*', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 's(1,2,1)'),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "')'"),
        ('ok', None, 's(1,2,1).u(2)'),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 14, 'an integer'),
        ('ok', None, 's(1,2,1).u(2)^-3'),
        ('ExprParseError', 17, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 17, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 19, 'an integer'),
        ('ExprParseError', 20, "','"),
        ('ExprParseError', 21, 'an integer'),
        ('ExprParseError', 22, 'an integer'),
        ('ExprParseError', 23, "','"),
        ('ExprParseError', 24, 'an integer'),
        ('ExprParseError', 25, "')'"),
        ('ok', None, '0'),
        ('ok', None, 's(1,2,1).u(2)^-4.s(1,2,1)*'),
    ]),
    ('isg', '(s(1,1,3)*.q(1))^2 .\t0', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 1, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 1, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 3, 'an integer'),
        ('ExprParseError', 4, "','"),
        ('ExprParseError', 5, 'an integer'),
        ('ExprParseError', 6, "','"),
        ('ExprParseError', 7, 'an integer'),
        ('ExprParseError', 8, "')'"),
        ('ExprParseError', 9, "')'"),
        ('ExprParseError', 10, "')'"),
        ('ExprParseError', 11, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "')'"),
        ('ExprParseError', 15, "')'"),
        ('ok', None, 'u(1)^-1.s(1,1,1)*'),
        ('ExprParseError', 17, 'an integer'),
        ('ok', None, 'u(1)^-1.s(1,1,2)*.s(1,1,1)*'),
        ('ok', None, 'u(1)^-1.s(1,1,2)*.s(1,1,1)*'),
        ('ExprParseError', 20, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 21, 's(...), u(...), q(...), 0 or ('),
        ('ok', None, '0'),
    ]),
    ('isg', ' u(1)^+0.s(2,1,-1)*^-1*', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 1, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 1, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 3, 'an integer'),
        ('ExprParseError', 4, "')'"),
        ('ok', None, 'u(1)'),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 6, 'an integer'),
        ('ok', None, 'q(1)'),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "','"),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "','"),
        ('ExprParseError', 15, 'an integer'),
        ('ExprParseError', 15, 'an integer'),
        ('ExprParseError', 17, "')'"),
        ('ok', None, '0'),
        ('ok', None, 'u(1)^2.s(2,1,1)*'),
        ('ExprParseError', 20, 'an integer'),
        ('ExprParseError', 20, 'an integer'),
        ('ok', None, '0'),
        ('ok', None, 'u(1)^2.s(2,1,1)*'),
    ]),
    ('semigroupoid', 'g(1,2,1).h(2)^3.g(2, 1,-4)', [
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 'g(1,2,1)'),
        ('ExprParseError', 9, 'h(...) or g(...)'),
        ('ExprParseError', 9, 'h(...) or g(...)'),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "')'"),
        ('ok', None, 'g(1,2,2)'),
        ('ExprParseError', 14, 'an integer'),
        ('ok', None, 'g(1,2,4)'),
        ('ExprParseError', 16, 'h(...) or g(...)'),
        ('ExprParseError', 16, 'h(...) or g(...)'),
        ('ExprParseError', 18, 'an integer'),
        ('ExprParseError', 19, "','"),
        ('ExprParseError', 20, 'an integer'),
        ('ExprParseError', 21, 'an integer'),
        ('ExprParseError', 22, "','"),
        ('ExprParseError', 23, 'an integer'),
        ('ExprParseError', 23, 'an integer'),
        ('ExprParseError', 25, "')'"),
        ('ok', None, 'g(1,2,1).g(2,1,-1)'),
    ]),
    ('semigroupoid', ' h(1) .\tg(1,1,5)', [
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 1, 'h(...) or g(...)'),
        ('ExprParseError', 1, 'h(...) or g(...)'),
        ('ExprParseError', 3, 'an integer'),
        ('ExprParseError', 4, "')'"),
        ('ok', None, 'h(1)'),
        ('ok', None, 'h(1)'),
        ('ExprParseError', 7, 'h(...) or g(...)'),
        ('ExprParseError', 8, 'h(...) or g(...)'),
        ('ExprParseError', 8, 'h(...) or g(...)'),
        ('ExprParseError', 10, 'an integer'),
        ('ExprParseError', 11, "','"),
        ('ExprParseError', 12, 'an integer'),
        ('ExprParseError', 13, "','"),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 15, "')'"),
        ('ok', None, 'g(1,1,6)'),
    ]),
    ('finite path', '[(1,1,1), (1,2,1),(2,2,2)]', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ExprParseError', 8, "']'"),
        ('ExprParseError', 9, "'('"),
        ('ExprParseError', 10, "'('"),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "','"),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "','"),
        ('ExprParseError', 15, 'an integer'),
        ('ExprParseError', 16, "')'"),
        ('ExprParseError', 17, "']'"),
        ('ExprParseError', 18, "'('"),
        ('ExprParseError', 19, 'an integer'),
        ('ExprParseError', 20, "','"),
        ('ExprParseError', 21, 'an integer'),
        ('ExprParseError', 22, "','"),
        ('ExprParseError', 23, 'an integer'),
        ('ExprParseError', 24, "')'"),
        ('ExprParseError', 25, "']'"),
        ('ok', None, '[(1,1,1), (1,2,1), (2,2,2)]'),
    ]),
    ('finite path', ' [ (2,1,1) ] @ 2', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'['"),
        ('ExprParseError', 2, "'('"),
        ('ExprParseError', 3, "'('"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "','"),
        ('ExprParseError', 8, 'an integer'),
        ('ExprParseError', 9, "')'"),
        ('ExprParseError', 10, "']'"),
        ('ExprParseError', 11, "']'"),
        ('ok', None, '[(2,1,1)]'),
        ('ok', None, '[(2,1,1)]'),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 15, 'an integer'),
        ('ok', None, '[(2,1,1)]'),
    ]),
    ('finite path', '[]@2', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, '@vertex after an empty path literal'),
        ('ExprParseError', 3, 'an integer'),
        ('ok', None, '[]@2'),
    ]),
    ('periodic path', '[(1,2,1)] ~ [(2,2,1), (2,1,1),(1,2,1)]', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ExprParseError', 8, "']'"),
        ('ExprParseError', 9, "'~'"),
        ('ExprParseError', 10, "'~'"),
        ('ExprParseError', 11, "'['"),
        ('ExprParseError', 12, "'['"),
        ('ExprParseError', 13, "'('"),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 15, "','"),
        ('ExprParseError', 16, 'an integer'),
        ('ExprParseError', 17, "','"),
        ('ExprParseError', 18, 'an integer'),
        ('ExprParseError', 19, "')'"),
        ('ExprParseError', 20, "']'"),
        ('ExprParseError', 21, "'('"),
        ('ExprParseError', 22, "'('"),
        ('ExprParseError', 23, 'an integer'),
        ('ExprParseError', 24, "','"),
        ('ExprParseError', 25, 'an integer'),
        ('ExprParseError', 26, "','"),
        ('ExprParseError', 27, 'an integer'),
        ('ExprParseError', 28, "')'"),
        ('ExprParseError', 29, "']'"),
        ('ExprParseError', 30, "'('"),
        ('ExprParseError', 31, 'an integer'),
        ('ExprParseError', 32, "','"),
        ('ExprParseError', 33, 'an integer'),
        ('ExprParseError', 34, "','"),
        ('ExprParseError', 35, 'an integer'),
        ('ExprParseError', 36, "')'"),
        ('ExprParseError', 37, "']'"),
        ('ok', None, '[] ~ [(1,2,1), (2,2,1), (2,1,1)]'),
    ]),
    ('periodic path', '[]@1 ~\t[(1,1,2)]', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, "'~'"),
        ('ExprParseError', 3, 'an integer'),
        ('ExprParseError', 4, "'~'"),
        ('ExprParseError', 5, "'~'"),
        ('ExprParseError', 6, "'['"),
        ('ExprParseError', 7, "'['"),
        ('ExprParseError', 8, "'('"),
        ('ExprParseError', 9, 'an integer'),
        ('ExprParseError', 10, "','"),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "','"),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "')'"),
        ('ExprParseError', 15, "']'"),
        ('ok', None, '[] ~ [(1,1,2)]'),
    ]),
    ('group', 'Z^2 + Z/2 +\tZ/6', [
        ('ExprParseError', 0, 'Z, Z^r, Z/d or 0'),
        ('ok', None, 'Z'),
        ('ExprParseError', 2, 'an integer'),
        ('ok', None, 'Z^2'),
        ('ok', None, 'Z^2'),
        ('ExprParseError', 5, 'Z, Z^r, Z/d or 0'),
        ('ExprParseError', 6, 'Z, Z^r, Z/d or 0'),
        ('ok', None, 'Z^3'),
        ('ExprParseError', 8, 'an integer'),
        ('ok', None, 'Z^2 + Z/2'),
        ('ok', None, 'Z^2 + Z/2'),
        ('ExprParseError', 11, 'Z, Z^r, Z/d or 0'),
        ('ExprParseError', 12, 'Z, Z^r, Z/d or 0'),
        ('ok', None, 'Z^3 + Z/2'),
        ('ExprParseError', 14, 'an integer'),
        ('ok', None, 'Z^2 + Z/2 + Z/6'),
    ]),
    ('group', ' 0', [
        ('ExprParseError', 0, 'Z, Z^r, Z/d or 0'),
        ('ExprParseError', 1, 'Z, Z^r, Z/d or 0'),
        ('ok', None, '0'),
    ]),
    ('isg', 's(1,1,1). u(3)', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 's(1,1,1)'),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 10, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 10, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 12, 'an integer'),
        ('ExprParseError', 13, "')'"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1). u(3)')"),
    ]),
    ('semigroupoid', 'h(1). g(2,3,1)', [
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "')'"),
        ('ok', None, 'h(1)'),
        ('ExprParseError', 5, 'h(...) or g(...)'),
        ('ExprParseError', 6, 'h(...) or g(...)'),
        ('ExprParseError', 6, 'h(...) or g(...)'),
        ('ExprParseError', 8, 'an integer'),
        ('ExprParseError', 9, "','"),
        ('ExprParseError', 10, 'an integer'),
        ('ExprParseError', 11, "','"),
        ('ExprParseError', 12, 'an integer'),
        ('ExprParseError', 13, "')'"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 5 in 'h(1). g(2,3,1)')"),
    ]),
    ('finite path', '[(1,1,1)]@2', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ExprParseError', 8, "']'"),
        ('ok', None, '[(1,1,1)]'),
        ('ExprParseError', 10, 'an integer'),
        ('SemanticError', None, 'declared base 2 contradicts first edge (1, 1, 1)'),
    ]),
    ('periodic path', '[(1,1,1)]@1 ~ [(1,2,1),(2,1,1)]', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ExprParseError', 8, "']'"),
        ('ExprParseError', 9, "'~'"),
        ('ExprParseError', 10, 'an integer'),
        ('ExprParseError', 11, "'~'"),
        ('ExprParseError', 12, "'~'"),
        ('ExprParseError', 13, "'['"),
        ('ExprParseError', 14, "'['"),
        ('ExprParseError', 15, "'('"),
        ('ExprParseError', 16, 'an integer'),
        ('ExprParseError', 17, "','"),
        ('ExprParseError', 18, 'an integer'),
        ('ExprParseError', 19, "','"),
        ('ExprParseError', 20, 'an integer'),
        ('ExprParseError', 21, "')'"),
        ('ExprParseError', 22, "']'"),
        ('ExprParseError', 23, "'('"),
        ('ExprParseError', 24, 'an integer'),
        ('ExprParseError', 25, "','"),
        ('ExprParseError', 26, 'an integer'),
        ('ExprParseError', 27, "','"),
        ('ExprParseError', 28, 'an integer'),
        ('ExprParseError', 29, "')'"),
        ('ExprParseError', 30, "']'"),
        ('ok', None, '[(1,1,1)] ~ [(1,2,1), (2,1,1)]'),
    ]),
    ('isg', 's(1,1,1)**.u(1)^2^3', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 's(1,1,1)'),
        ('ok', None, 's(1,1,1)*'),
        ('ok', None, 's(1,1,1)'),
        ('ExprParseError', 11, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "')'"),
        ('ok', None, 's(1,1,1).u(1)'),
        ('ExprParseError', 16, 'an integer'),
        ('ok', None, 's(1,1,1).u(1)^2'),
        ('ExprParseError', 18, 'an integer'),
        ('ok', None, 's(1,1,1).u(1)^6'),
    ]),
    ('isg', 'u(1)*.q(1)^5', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "')'"),
        ('ok', None, 'u(1)'),
        ('ok', None, 'u(1)^-1'),
        ('ExprParseError', 6, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 6, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 8, 'an integer'),
        ('ExprParseError', 9, "')'"),
        ('ok', None, 'u(1)^-1'),
        ('ExprParseError', 11, 'an integer'),
        ('ok', None, 'u(1)^-1'),
    ]),
    ('isg', 'u(1)^23*.q(1)', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "')'"),
        ('ok', None, 'u(1)'),
        ('ExprParseError', 5, 'an integer'),
        ('ok', None, 'u(1)^2'),
        ('ok', None, 'u(1)^23'),
        ('ok', None, 'u(1)^-23'),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "')'"),
        ('ok', None, 'u(1)^-23'),
    ]),
    ('isg', 's(1,1,1).u(3).q(1)', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 's(1,1,1)'),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 9, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 11, 'an integer'),
        ('ExprParseError', 12, "')'"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3)')"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3).')"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3).q')"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3).q(')"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3).q(1')"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 9 in 's(1,1,1).u(3).q(1)')"),
    ]),
    ('isg', 's(1,2,1) * . u(1) ^ 2\t. q(1)', [
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 0, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ok', None, 's(1,2,1)'),
        ('ok', None, 's(1,2,1)'),
        ('ok', None, 's(1,2,1)*'),
        ('ok', None, 's(1,2,1)*'),
        ('ExprParseError', 12, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 13, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 13, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 15, 'an integer'),
        ('ExprParseError', 16, "')'"),
        ('ok', None, 'u(2).s(1,2,1)*'),
        ('ok', None, 'u(2).s(1,2,1)*'),
        ('ExprParseError', 19, 'an integer'),
        ('ExprParseError', 20, 'an integer'),
        ('ok', None, 'u(2)^2.s(1,2,1)*'),
        ('ok', None, 'u(2)^2.s(1,2,1)*'),
        ('ExprParseError', 23, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 24, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 24, 's(...), u(...), q(...), 0 or ('),
        ('ExprParseError', 26, 'an integer'),
        ('ExprParseError', 27, "')'"),
        ('ok', None, 'u(2)^2.s(1,2,1)*'),
    ]),
    ('semigroupoid', 'h(1) ^ 2 . g(1,2,1)\t. h(3)', [
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "')'"),
        ('ok', None, 'h(1)'),
        ('ok', None, 'h(1)'),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, 'an integer'),
        ('ok', None, 'h(1)^2'),
        ('ok', None, 'h(1)^2'),
        ('ExprParseError', 10, 'h(...) or g(...)'),
        ('ExprParseError', 11, 'h(...) or g(...)'),
        ('ExprParseError', 11, 'h(...) or g(...)'),
        ('ExprParseError', 13, 'an integer'),
        ('ExprParseError', 14, "','"),
        ('ExprParseError', 15, 'an integer'),
        ('ExprParseError', 16, "','"),
        ('ExprParseError', 17, 'an integer'),
        ('ExprParseError', 18, "')'"),
        ('ok', None, 'g(1,2,3)'),
        ('ok', None, 'g(1,2,3)'),
        ('ExprParseError', 21, 'h(...) or g(...)'),
        ('ExprParseError', 22, 'h(...) or g(...)'),
        ('ExprParseError', 22, 'h(...) or g(...)'),
        ('ExprParseError', 24, 'an integer'),
        ('ExprParseError', 25, "')'"),
        ('SemanticError', None, "vertex 3 out of range 1..2 (at offset 21 in '. g(1,2,1)\\t. h(3)')"),
    ]),
    ('semigroupoid', 'h(2)^12.g(2,1,1)^3', [
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 0, 'h(...) or g(...)'),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "')'"),
        ('ok', None, 'h(2)'),
        ('ExprParseError', 5, 'an integer'),
        ('ok', None, 'h(2)'),
        ('ok', None, 'h(2)^12'),
        ('ExprParseError', 8, 'h(...) or g(...)'),
        ('ExprParseError', 8, 'h(...) or g(...)'),
        ('ExprParseError', 10, 'an integer'),
        ('ExprParseError', 11, "','"),
        ('ExprParseError', 12, 'an integer'),
        ('ExprParseError', 13, "','"),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 15, "')'"),
        ('ok', None, 'g(2,1,13)'),
        ('ExprParseError', 16, 'end of input'),
        ('ExprParseError', 16, 'end of input'),
    ]),
    ('finite path', '[(1,1,1) , (1,2,2)]', [
        ('ExprParseError', 0, "'['"),
        ('ExprParseError', 1, "'('"),
        ('ExprParseError', 2, 'an integer'),
        ('ExprParseError', 3, "','"),
        ('ExprParseError', 4, 'an integer'),
        ('ExprParseError', 5, "','"),
        ('ExprParseError', 6, 'an integer'),
        ('ExprParseError', 7, "')'"),
        ('ExprParseError', 8, "']'"),
        ('ExprParseError', 9, "']'"),
        ('ExprParseError', 10, "'('"),
        ('ExprParseError', 11, "'('"),
        ('ExprParseError', 12, 'an integer'),
        ('ExprParseError', 13, "','"),
        ('ExprParseError', 14, 'an integer'),
        ('ExprParseError', 15, "','"),
        ('ExprParseError', 16, 'an integer'),
        ('ExprParseError', 17, "')'"),
        ('SemanticError', None, "offset 2 out of range 1..1 for edge (1,2) (at offset 10 in '[(1,1,1) , (1,2,2)')"),
        ('SemanticError', None, "offset 2 out of range 1..1 for edge (1,2) (at offset 10 in '[(1,1,1) , (1,2,2)]')"),
    ]),
    ('group', 'Z/0 + 0', [
        ('ExprParseError', 0, 'Z, Z^r, Z/d or 0'),
        ('ok', None, 'Z'),
        ('ExprParseError', 2, 'an integer'),
        ('SemanticError', None, 'cyclic order 0 must be positive'),
        ('SemanticError', None, 'cyclic order 0 must be positive'),
        ('SemanticError', None, 'cyclic order 0 must be positive'),
        ('SemanticError', None, 'cyclic order 0 must be positive'),
        ('SemanticError', None, 'cyclic order 0 must be positive'),
    ]),
]


@pytest.mark.parametrize("grammar, text, outcomes", PARSE_CONTRACT, ids=[f"{g}:{t!r}" for g, t, _ in PARSE_CONTRACT])
def test_error_contract_of_every_truncation(grammar, text, outcomes):
    assert [outcome(grammar, text[:k]) for k in range(len(text) + 1)] == outcomes


def test_integer_past_the_digit_limit_mid_chain(digit_limit):
    digits = "7" * (digit_limit + 1)
    with pytest.raises(ExprParseError) as exc:
        parse_isg(f"s(1,1,1).u({digits}).q(1)", E1)
    assert (exc.value.position, exc.value.expected) == (11, f"an integer of at most {digit_limit} digits")


# -- metamorphic properties of the product loops --------------------------------
#
# A chain is a list of factors, each a list of tokens whose first is the
# atom's head.  CHAINS gives, per grammar, the chains over E1 (every arc of
# E1 is on the support), the separator, and what encloses the chain.

METAMORPHIC = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

vertex = st.integers(1, 2).map(str)
offset = st.integers(-3, 6).map(str)
power = st.none() | st.integers(-5, 5).map(str)


def _postfix(op, value):
    return [] if value is None else [op, value]


isg_factor = st.one_of(
    st.builds(
        lambda i, j, n, star: ["s(", i, ",", j, ",", n, ")"] + star, vertex, vertex, offset, st.sampled_from([[], ["*"]])
    ),
    st.builds(lambda v, t: ["u(", v, ")"] + _postfix("^", t), vertex, power),
    st.builds(lambda v: ["q(", v, ")"], vertex),
)


@st.composite
def walks(draw, *, semigroupoid: bool):
    """The atoms of a walk through E1: g atoms with h atoms at their ends,
    or path edges with offsets in range."""
    vertices = draw(st.lists(st.integers(1, 2), min_size=2, max_size=9))
    atoms = []
    for i, j in zip(vertices, vertices[1:]):
        if not semigroupoid:
            atoms.append(["(", str(i), ",", str(j), ",", str(draw(st.integers(1, E1.a_at(i, j)))), ")"])
            continue
        atoms.append(["g(", str(i), ",", str(j), ",", draw(offset), ")"])
        if draw(st.booleans()):
            atoms.append(["h(", str(j), ")"] + _postfix("^", draw(power)))
    return atoms


CHAINS = {
    "isg": (st.lists(isg_factor, min_size=1, max_size=8), ".", "", ""),
    "semigroupoid": (walks(semigroupoid=True), ".", "", ""),
    "finite path": (walks(semigroupoid=False), ",", "[", "]"),
}
blank = st.sampled_from(["", "", " ", "\t", " \t "])


def chain_text(grammar, factors) -> str:
    _, separator, open_, close = CHAINS[grammar]
    return open_ + separator.join("".join(f) for f in factors) + close


@METAMORPHIC
@given(factors=CHAINS["isg"][0], data=st.data())
def test_parenthesized_factor_keeps_the_value(factors, data):
    """A plain factor in parentheses, with or without its postfix, is read
    by the token-by-token reader; the loop pattern reads it bare."""
    k = data.draw(st.integers(0, len(factors) - 1))
    f = factors[k]
    atom = 7 if f[0] == "s(" else 3
    cut = data.draw(st.sampled_from([atom, len(f)]))
    depth = data.draw(st.integers(1, 2))
    wrapped = factors[:k] + [["("] * depth + f[:cut] + [")"] * depth + f[cut:]] + factors[k + 1 :]
    expected = outcome("isg", chain_text("isg", factors))
    assert expected[0] == "ok"
    assert outcome("isg", chain_text("isg", wrapped)) == expected


@METAMORPHIC
@given(grammar=st.sampled_from(sorted(CHAINS)), data=st.data())
def test_whitespace_between_tokens_keeps_the_value(grammar, data):
    chain, separator, open_, close = CHAINS[grammar]
    factors = data.draw(chain)
    tokens = [open_] + [tok for k, f in enumerate(factors) for tok in ([separator] if k else []) + f] + [close]
    spaced = data.draw(blank) + "".join(tok + data.draw(blank) for tok in tokens if tok)
    expected = outcome(grammar, chain_text(grammar, factors))
    assert expected[0] == "ok"
    assert outcome(grammar, spaced) == expected


@st.composite
def broken(draw, factor):
    """A factor with one token after its head deleted or replaced."""
    k = draw(st.integers(1, len(factor) - 1))
    return factor[:k] + [draw(st.sampled_from(["", "x", "0", "3", "-1", ".", "*", "^"]))] + factor[k + 1 :]


def _at_offset(message: str) -> tuple[str, int]:
    """A semantic error's message up to the quoted text, and its offset."""
    head, _, rest = message.partition(" (at offset ")
    return head, int(rest.split(" ", 1)[0])


@METAMORPHIC
@given(grammar=st.sampled_from(sorted(CHAINS)), data=st.data())
def test_error_in_a_factor_is_reported_as_for_that_factor_alone(grammar, data):
    """Errors come left to right: the first broken factor is reported, at
    its place in the chain, as it is when it stands alone, whatever a later
    factor holds."""
    chain, separator, open_, close = CHAINS[grammar]
    factors = data.draw(chain)
    k = data.draw(st.integers(0, len(factors) - 1))
    factors[k] = data.draw(broken(factors[k]))
    alone = outcome(grammar, open_ + "".join(factors[k]) + close)
    assume(alone[0] in ("ExprParseError", "SemanticError"))
    if k + 1 < len(factors) and data.draw(st.booleans()):
        later = data.draw(st.integers(k + 1, len(factors) - 1))
        factors[later] = data.draw(broken(factors[later]))
    text = chain_text(grammar, factors)
    shift = sum(len("".join(f) + separator) for f in factors[:k])
    got = outcome(grammar, text)
    assert got[0] == alone[0]
    if alone[0] == "ExprParseError":
        assert got[1:] == (alone[1] + shift, alone[2])
    else:
        head, at = _at_offset(alone[2])
        assert _at_offset(got[2]) == (head, at + shift)
