import random

import pytest

from katsura.decisions import Reason, Verdict, analyze, fixed_point_escape
from katsura import cli, ktheory, matrices
from katsura.errors import DomainError, StructuralError
from katsura.matrices import MatrixPair, graph_facts

from conftest import (
    cycle_ratio_denominators,
    cycle_with_chords,
    direct_sum,
    escape_witness,
    random_pair,
    report_pairs,
    sparse_scc_pair,
)
from oracles import (
    add_transient_vertex,
    contraction_by_path_counts,
    escape_by_predecessor_search,
    has_fixed_cylinder,
    has_proper_hereditary_saturated_set,
    katsura_classic_check,
    simple_vertex_cycles,
)

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])
FLIP = MatrixPair.from_rows([[0, 1], [1, 0]], [[0, 1], [1, 0]])
UPPER = MatrixPair.from_rows([[2, 1], [0, 2]], [[1, 1], [0, 1]])
# vertex 1 lies on no cycle and feeds the loop at 2: not irreducible, but minimal
TRANSIENT = MatrixPair.from_rows([[0, 1], [0, 2]], [[0, 1], [0, 1]])


class TestMinimality:
    def test_yes(self):
        assert analyze(E1).minimal.value == "yes"

    def test_no(self):
        assert analyze(UPPER).minimal.value == "no"

    def test_single_vertex(self):
        assert analyze(MatrixPair.from_rows([[3]], [[1]])).minimal.value == "yes"

    def test_reasons_present(self):
        assert analyze(E1).minimal.reasons
        with pytest.raises(StructuralError):
            Verdict("yes", ())

    def test_transient_vertex(self):
        rep = analyze(TRANSIENT)
        assert rep.irreducible.value == "no"
        assert rep.minimal.value == "yes"
        assert rep.simple.value == "yes"
        assert rep.purely_infinite_simple.value == "yes"
        assert rep.locally_contracting.value == "yes"

    def test_against_hereditary_saturated_sets(self):
        rng = random.Random(3)
        for _ in range(3000):
            pair = random_pair(rng, n_max=6, a_max=2)
            expected = "no" if has_proper_hereditary_saturated_set(pair) else "yes"
            assert analyze(pair).minimal.value == expected


class TestTopologicalFreeness:
    def test_contracting_loops(self):
        assert analyze(E1).topologically_free.value == "yes"

    def test_condition_l_failure(self):
        v = analyze(FLIP).topologically_free
        assert v.value == "no"
        assert any(r.tag == "condition-L-fails" for r in v.reasons)

    def test_ratio_one_loop_has_cylinder(self):
        pair = MatrixPair.from_rows([[2]], [[2]])
        v = analyze(pair).topologically_free
        assert v.value == "no"
        assert any(r.tag == "fixed-cylinder" for r in v.reasons)

    def test_condition_e_failure(self):
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [1, 1]])
        assert analyze(pair).topologically_free.value == "no"


class TestSimplicity:
    def test_yes_pipeline(self):
        assert analyze(E1).simple.value == "yes"

    def test_yes_when_one_valuation_contracts(self):
        # ratio 3/2 around the loop: the exponent of 2 drops on every turn
        assert analyze(MatrixPair.from_rows([[2]], [[3]])).simple.value == "yes"

    def test_no_via_condition_l(self):
        assert analyze(FLIP).simple.value == "no"

    def test_no_via_irreducibility(self):
        assert analyze(UPPER).simple.value == "no"

    def test_unknown_without_condition_e(self):
        pair = MatrixPair.from_rows([[2]], [[0]])
        v = analyze(pair).simple
        assert v.value == "unknown"
        assert any(r.tag == "requires-condition-E" for r in v.reasons)


class TestLocallyContracting:
    def test_yes(self):
        assert analyze(E1).locally_contracting.value == "yes"

    def test_no_without_condition_l(self):
        assert analyze(FLIP).locally_contracting.value == "no"

    def test_yes_without_extension(self):
        assert analyze(UPPER).locally_contracting.value == "yes"

    def test_against_path_counts(self):
        # about a third of these pairs are not strongly connected
        rng = random.Random(5)
        for _ in range(3000):
            pair = random_pair(rng, n_max=5, a_max=rng.choice((1, 2)))
            expected = contraction_by_path_counts(pair)
            assert expected is not None
            assert analyze(pair).locally_contracting.value == ("yes" if expected else "no")


class TestPureInfiniteness:
    def test_yes(self):
        assert analyze(E1).purely_infinite_simple.value == "yes"

    def test_no(self):
        assert analyze(FLIP).purely_infinite_simple.value == "no"

    def test_unknown_propagates(self):
        pair = MatrixPair.from_rows([[2]], [[0]])
        assert analyze(pair).purely_infinite_simple.value == "unknown"


class TestTransientVertex:
    # one more vertex with arcs into the pair and none coming in: the old unit
    # is a full projection, so the algebras are stably isomorphic
    FIELDS = ("minimal", "simple", "purely_infinite_simple", "locally_contracting")

    def test_verdicts_and_k_groups_unchanged(self):
        rng = random.Random(9)
        for _ in range(2000):
            pair = random_pair(rng, n_max=4, ensure_e=True)
            before, after = analyze(pair), analyze(add_transient_vertex(rng, pair))
            for name in self.FIELDS:
                assert getattr(after, name).value == getattr(before, name).value, name
            assert after.kgroups == before.kgroups


class TestClassicCheck:
    def test_yes(self):
        assert katsura_classic_check(E1).value == "yes"

    def test_wrong_diagonal_b(self):
        assert katsura_classic_check(MatrixPair.from_rows([[2]], [[0]])).value == "no"

    def test_small_diagonal_a(self):
        pair = MatrixPair.from_rows([[1, 1], [1, 1]], [[1, 1], [1, 1]])
        assert katsura_classic_check(pair).value == "no"

    def test_classic_never_refuted(self):
        # classic conditions + condition (E) must never yield simplicity No
        rng = random.Random(71)
        for _ in range(150):
            pair = random_pair(rng, n_max=3, a_max=3, ensure_e=True)
            if katsura_classic_check(pair).value != "yes":
                continue
            assert analyze(pair).simple.value in ("yes", "unknown")


class TestAnalyze:
    def test_cuntz_note(self):
        rep = analyze(MatrixPair.from_rows([[3]], [[0]]))
        assert any("Cuntz-Krieger" in note for note in rep.notes)

    def test_full_pipeline_e1(self):
        rep = analyze(E1)
        assert rep.simple.value == "yes"
        assert rep.purely_infinite_simple.value == "yes"
        assert rep.kgroups.k0.free_rank == 1 and not rep.kgroups.k0.torsion
        assert rep.kgroups.k1.free_rank == 1
        assert rep.nuclear.value == "yes" and rep.etale.value == "yes"
        assert rep.hausdorff.value == "yes"

    def test_invalid_pair_raises(self):
        with pytest.raises(StructuralError):
            analyze(MatrixPair.from_rows([[0]], [[0]]))

    def test_hausdorff_unknown_without_e(self):
        rep = analyze(MatrixPair.from_rows([[2]], [[0]]))
        assert rep.hausdorff.value == "unknown"
        assert rep.essentially_principal.value == "unknown"

    def test_consistency_random(self):
        rng = random.Random(72)
        for _ in range(60):
            pair = random_pair(rng, n_max=3, a_max=3)
            rep = analyze(pair)
            if rep.simple.value == "yes":
                assert rep.minimal.value == "yes"
                assert rep.condition_l.value == "yes"
            if rep.purely_infinite_simple.value == "yes":
                assert rep.simple.value == "yes"
            if rep.topologically_free.value == "yes":
                assert rep.essentially_principal.value == "yes"
            if rep.condition_e.value == "yes":
                assert rep.essentially_principal.value == rep.topologically_free.value

    def test_each_fact_computed_once(self, monkeypatch, tmp_path, capsys):
        # one diagonal form per matrix, no witness-carrying Smith form, one
        # graph-facts call and in it one SCC pass, which the escape reads,
        # and no validity check beyond the one that builds the pair
        calls = {"diagonal": 0, "smith": 0, "facts": 0, "scc": 0, "check": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(ktheory, "diagonal_form", counting("diagonal", ktheory.diagonal_form))
        monkeypatch.setattr(ktheory, "smith_normal_form", counting("smith", ktheory.smith_normal_form))
        monkeypatch.setattr(
            matrices,
            "strongly_connected_components",
            counting("scc", matrices.strongly_connected_components),
        )
        monkeypatch.setattr(matrices, "graph_facts", counting("facts", matrices.graph_facts))
        monkeypatch.setattr(MatrixPair, "__init__", counting("check", MatrixPair.__init__))
        rep = analyze(E1)
        assert rep.topologically_free.value == "yes"  # the escape verdict was computed
        assert calls == {"diagonal": 2, "smith": 0, "facts": 1, "scc": 1, "check": 0}

        path = tmp_path / "pair.json"
        path.write_text('{"N": 2, "A": [[2, 1], [1, 2]], "B": [[1, 1], [1, 1]]}')
        assert cli.main(["analyze", str(path)]) == 0
        assert "topologically_free       yes" in capsys.readouterr().out
        assert calls == {"diagonal": 4, "smith": 0, "facts": 2, "scc": 2, "check": 1}

    def test_deterministic_for_fixed_caps(self):
        rng = random.Random(73)
        for _ in range(20):
            pair = random_pair(rng, n_max=3, a_max=3)
            assert analyze(pair) == analyze(pair)


class TestProbes:
    def test_freeness_yes_means_no_probe_hits(self):
        # the exact Yes must survive a bounded search from every vertex, at
        # small exponents and at every cycle-ratio denominator
        rng = random.Random(74)
        checked = 0
        for _ in range(50):
            pair = random_pair(rng, n_max=3, a_max=2, ensure_e=True)
            if fixed_point_escape(pair, graph_facts(pair)).value != "yes":
                continue
            checked += 1
            if graph_facts(pair).condition_l:
                assert analyze(pair).topologically_free.value == "yes"
            exponents = set(range(1, 13)) | cycle_ratio_denominators(pair)
            for v in pair.vertices:
                for l in exponents:
                    for signed in (l, -l):
                        assert has_fixed_cylinder(pair, v, signed, 256).value != "yes", (pair, v, signed)
        assert checked >= 20

    def test_escape_no_witness_fixes_a_cylinder(self):
        rng = random.Random(76)
        confirmed = named = 0
        for _ in range(80):
            pair = random_pair(rng, n_max=3, a_max=3, ensure_e=True)
            verdict = fixed_point_escape(pair, graph_facts(pair))
            assert verdict.value in ("yes", "no")
            if verdict.value != "no":
                continue
            named += 1
            w, l = escape_witness(verdict)
            result = has_fixed_cylinder(pair, w, l, 4096).value
            assert result != "no", (pair, w, l)
            confirmed += result == "yes"
        assert named >= 10 and confirmed >= 0.9 * named

    def test_zero_b_entry_is_refused(self):
        # the escape is decided under condition (E); a zero B-entry has no
        # valuation, and u(1) fixes the cylinder [(1,2,1)] trivially
        pair = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 0], [1, 1]])
        with pytest.raises(DomainError):
            fixed_point_escape(pair, graph_facts(pair))
        assert has_fixed_cylinder(pair, 1, 1).value == "yes"

    def test_entry_basis_sees_cancelling_ratios(self):
        # A = 6 on a 2-cycle, B = 4 and 9: the ratio product is 1, so some
        # power fixes everything, though 6 alone divides neither B-entry
        pair = MatrixPair.from_rows([[0, 6], [6, 0]], [[0, 4], [9, 0]])
        verdict = fixed_point_escape(pair, graph_facts(pair))
        assert verdict.value == "no"
        w, l = escape_witness(verdict)
        assert has_fixed_cylinder(pair, w, l).value == "yes"

    def test_witness_exponent_is_least_walk_weight(self):
        # chain 1 -> 2 -> ... -> 5 halving at every step, ending in a unit
        # loop: no walk contracts forever, and the walk from 1 into the loop
        # divides by 2^4, which only u(1)^16 survives
        k = 5
        a = [[0] * k for _ in range(k)]
        b = [[0] * k for _ in range(k)]
        for i in range(k - 1):
            a[i][i + 1], b[i][i + 1] = 2, 1
        a[k - 1][k - 1] = b[k - 1][k - 1] = 1
        pair = MatrixPair.from_rows(a, b)
        assert escape_witness(fixed_point_escape(pair, graph_facts(pair))) == (1, 16)
        assert has_fixed_cylinder(pair, 1, 16).value == "yes"
        assert has_fixed_cylinder(pair, 1, 8).value == "no"

    def test_escape_no_forces_freeness_no(self):
        rng = random.Random(75)
        for _ in range(40):
            pair = random_pair(rng, n_max=3, a_max=2, ensure_e=True)
            if not graph_facts(pair).condition_l:
                continue
            if fixed_point_escape(pair, graph_facts(pair)).value == "no":
                assert analyze(pair).topologically_free.value == "no"


def escape_pairs(rng):
    """Seeded pairs with condition E for the escape: dense ones, sparse ones
    with up to 14 components, a transient vertex upstream, disjoint sums,
    entries in the tens, and cycles with chords."""
    for _ in range(1200):
        yield random_pair(rng, n_max=6, ensure_e=True)
    for _ in range(800):
        yield sparse_scc_pair(rng, a_max=rng.choice((3, 12)), b_max=rng.choice((3, 30)))
    for _ in range(400):
        yield add_transient_vertex(rng, random_pair(rng, n_max=5, ensure_e=True))
    for _ in range(400):
        yield direct_sum(random_pair(rng, n_max=4, ensure_e=True), sparse_scc_pair(rng, 2, 6))
    for _ in range(400):
        yield random_pair(rng, n_max=5, a_max=40, b_max=40, ensure_e=True)
    for n in range(16, 56, 2):
        yield cycle_with_chords(rng, n, n // 8, 4)


def escape(pair):
    return fixed_point_escape(pair, graph_facts(pair))


def fixed_cylinder(w, l):
    return Verdict("no", (Reason("fixed-cylinder", f"u({w})^{l} fixes the whole cylinder of vertex {w}"),))


PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def scale_arc(rng, pair):
    """The pair with A and B multiplied on one support arc by the same
    prime, one that divides no entry of the pair."""
    entries = [x for row in pair.a + pair.b for x in row if x]
    p = rng.choice([p for p in PRIMES if all(x % p for x in entries)])
    i = rng.choice(pair.vertices)
    j = rng.choice(pair.out_vertices(i))
    a, b = [list(row) for row in pair.a], [list(row) for row in pair.b]
    a[i - 1][j - 1] *= p
    b[i - 1][j - 1] *= p
    return MatrixPair.from_rows(a, b)


class TestEscapeAgainstOracle:
    def test_value_and_text_match_predecessor_search(self):
        # the oracle builds its own predecessor map and searches backwards
        # per factor; the escape reads the components once
        seen = {"yes": 0, "no": 0}
        for pair in escape_pairs(random.Random(39)):
            verdict = escape(pair)
            assert verdict == escape_by_predecessor_search(pair), pair
            seen[verdict.value] += 1
        assert sum(seen.values()) >= 3000 and min(seen.values()) >= 600, seen

    def test_arc_scaled_by_a_fresh_prime(self):
        # the new factor has weight 0 on every arc, so it changes no least
        # walk weight, and w and l stay the same
        rng = random.Random(40)
        checked = 0
        for pair in escape_pairs(random.Random(40)):
            assert escape(scale_arc(rng, pair)) == escape(pair), pair
            checked += 1
        assert checked >= 1000

    def test_disjoint_sum(self):
        # P + Q escapes iff both do; otherwise the smallest stuck vertex is
        # P's, or Q's shifted by |P|, with the same power
        pairs = escape_pairs(random.Random(41))
        checked = 0
        for p, q in zip(pairs, pairs):
            vp, vq, total = escape(p), escape(q), escape(direct_sum(p, q))
            if vp.is_no:
                assert total == vp, (p, q)
            elif vq.is_no:
                w, l = escape_witness(vq)
                assert total == fixed_cylinder(w + p.n, l), (p, q)
            else:
                assert total == vp, (p, q)
            checked += 1
        assert checked >= 1000


def relabel(pair: MatrixPair, perm: list[int]) -> MatrixPair:
    """The pair with vertex perm[k] + 1 renamed k + 1."""
    return MatrixPair.from_rows(
        [[pair.a[i][j] for j in perm] for i in perm], [[pair.b[i][j] for j in perm] for i in perm]
    )


class TestRelabelling:
    def test_verdicts_and_k_groups_are_invariant(self):
        # the verdicts and K-groups are isomorphism invariants of the graph
        # with its A- and B-labels; reason texts may name vertices, values not
        rng = random.Random(48)
        seen: dict[str, set[str]] = {}
        for pair in report_pairs(rng, 1000):
            perm = rng.sample(range(pair.n), pair.n)
            before, after = analyze(pair), analyze(relabel(pair, perm))
            values = {name: v.value for name, v in before.verdict_fields().items()}
            assert values == {name: v.value for name, v in after.verdict_fields().items()}, (pair, perm)
            assert before.kgroups == after.kgroups, (pair, perm)
            for name, value in values.items():
                seen.setdefault(name, set()).add(value)
        assert len(seen) == 14
        assert seen["simple"] == {"yes", "no", "unknown"}
        assert all(seen[name] == {"yes", "no"} for name in ("topologically_free", "minimal", "condition_k"))


def long_cycle(n, chord=False):
    """The bare n-cycle with unit entries; the chord 1 -> 3 carries A = 2,
    B = 1, so walks through it halve the trace."""
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][(i + 1) % n] = b[i][(i + 1) % n] = 1
    if chord:
        a[0][2], b[0][2] = 2, 1
    return MatrixPair.from_rows(a, b)


class TestLongCycle:
    # deeper than the interpreter's default recursion limit
    N = 1100

    def test_bare_cycle_is_its_only_simple_cycle(self):
        assert simple_vertex_cycles(long_cycle(self.N)) == [tuple(range(1, self.N + 1))]

    def test_bare(self):
        pair = long_cycle(self.N)
        facts = graph_facts(pair)
        assert facts.irreducible
        assert not facts.condition_k
        assert escape_witness(fixed_point_escape(pair, facts)) == (1, 1)

    def test_with_chord(self):
        pair = long_cycle(self.N, chord=True)
        facts = graph_facts(pair)
        assert facts.irreducible
        assert facts.condition_k
        assert fixed_point_escape(pair, facts).value == "yes"
