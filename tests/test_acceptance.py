"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a `ACCEPTANCE n: PASS` line after its assertions hold, so a
verbose run doubles as a checklist.
"""

import itertools
import random
import time

import pytest

from katsura.decisions import analyze, fixed_point_escape
from katsura.errors import DepthCapExceeded, UnrealizableWithSquareMatrices
from katsura.invsemigroup import PathWord, Zero, multiply, push_unitary, star, triple
from katsura.ktheory import AbelianGroup, k_groups, realize, smith_normal_form
from katsura.matrices import MatrixPair, graph_facts
from katsura.parsing import format_group
from katsura.pathspace import (
    act_on_periodic,
    act_on_prefix,
    eventually_periodic,
    generate_fixed_point,
    germ_equal,
    image_point,
)
from katsura.semigroupoid import GWord, HPower, compose, lcm, standard_form, target

from conftest import (
    cycle_ratio_denominators,
    escape_witness,
    random_backward_walk,
    random_isg,
    random_pair,
    random_path_word,
    random_raw_word,
    random_walk,
)
from oracles import divides_by_witness, has_fixed_cylinder, mat_mul, projection_q, unitary

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])
FLIP = MatrixPair.from_rows([[0, 1], [1, 0]], [[0, 1], [1, 0]])
D2 = MatrixPair.from_rows([[2]], [[1]])


def test_criterion_01_cuntz_k_theory():
    start = time.monotonic()
    for n in range(2, 7):
        pair = MatrixPair.from_rows([[n]], [[0]])
        kt = k_groups(pair)
        assert kt.k0 == (AbelianGroup(0, (n - 1,)) if n > 2 else AbelianGroup(0, ()))
        assert kt.k1 == AbelianGroup(0, ())
        assert format_group(kt.k1) == "0"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - Cuntz K-groups Z/(n-1), 0 for n=2..6 ({elapsed:.3f}s)")


def test_criterion_02_simplicity_pipeline():
    start = time.monotonic()
    rep = analyze(E1)
    assert rep.simple.value == "yes"
    assert rep.purely_infinite_simple.value == "yes"
    rep2 = analyze(FLIP)
    assert rep2.simple.value == "no"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - simplicity verdicts exact on both pilot pairs ({elapsed:.3f}s)")


def _rewrite_step(pair, edges, pos, direction):
    i, j, n = edges[pos]
    j2, k, m = edges[pos + 1]
    a = pair.a_at(i, j)
    b = pair.b_at(j2, k)
    if direction > 0:
        return edges[:pos] + [(i, j, n - a), (j2, k, m + b)] + edges[pos + 2 :]
    return edges[:pos] + [(i, j, n + a), (j2, k, m - b)] + edges[pos + 2 :]


def _absorb_trailing_first(pair, word):
    """Alternative h-absorption order: h-runs fold into the preceding g-atom
    (A-shift) whenever possible, instead of into the following one."""
    from katsura.semigroupoid import HAtom

    edges = []
    lead = 0
    for atom in word:
        if isinstance(atom, HAtom):
            if edges:
                i, j, n = edges[-1]
                edges[-1] = (i, j, n + atom.exponent * pair.a_at(i, j))
            else:
                lead += atom.exponent
        else:
            edges.append(atom)
    if lead:
        i, j, n = edges[0]
        edges[0] = (i, j, n + lead * pair.b_at(i, j))
    return edges


def test_criterion_03_rewriting_confluence():
    rng = random.Random(103)
    failures = 0
    for _ in range(1000):
        pair = random_pair(rng, n_max=4, a_max=3)
        word = random_raw_word(rng, pair, max_len=8)
        canonical = standard_form(pair, word)
        if isinstance(canonical, HPower):
            continue
        variants = [list(canonical.edges), _absorb_trailing_first(pair, word)]
        for base in list(variants):
            walked = base
            for _ in range(rng.randint(1, 10)):
                if len(walked) < 2:
                    break
                pos = rng.randrange(len(walked) - 1)
                walked = _rewrite_step(pair, walked, pos, rng.choice((1, -1)))
            variants.append(walked)
        for variant in variants:
            if standard_form(pair, [tuple(e) for e in variant]) != canonical:
                failures += 1
    assert failures == 0
    print("\nACCEPTANCE 3: PASS - 1000 raw words confluent under random rewriting orders")


def _common_multiples(pair, f, w, max_extra):
    """Bounded family of common multiples: extensions of either side (interior
    offsets in range, final offset windowed) that both sides divide."""
    out = []
    for anchor in (f, w):
        start = target(anchor)
        candidates = [anchor] + [compose(pair, anchor, HPower(start, t)) for t in range(1, 5)]
        skeletons = [[]]
        complete = []
        for _ in range(max_extra):
            skeletons = [
                s + [(v, j)]
                for s in skeletons
                for v in [s[-1][1] if s else start]
                for j in pair.out_vertices(v)
            ]
            complete.extend(skeletons)
        for arcs in complete:
            pools = []
            for pos, (v, j) in enumerate(arcs):
                a = pair.a_at(v, j)
                if pos + 1 < len(arcs):
                    pools.append([(v, j, n) for n in range(1, a + 1)])
                else:
                    pools.append([(v, j, n) for n in range(-2 * a, 2 * a + 1)])
            for edges in itertools.product(*pools):
                candidates.append(compose(pair, anchor, GWord(edges)))
        for m in candidates:
            if m is None or m in out:
                continue
            if divides_by_witness(pair, f, m) and divides_by_witness(pair, w, m):
                out.append(m)
    return out


def test_criterion_04_lcm_oracle():
    rng = random.Random(104)
    start_time = time.monotonic()
    checked = disjoint = 0
    while checked < 500:
        pair = random_pair(rng, n_max=3, a_max=2)
        base_vertex = rng.choice(list(pair.vertices))
        m0 = random_walk(rng, pair, base_vertex, rng.randint(1, 4))

        def cut(edges):
            # a final offset moved off its class mod A makes the cuts disjoint
            # unless the other cut is longer
            if rng.random() < 0.15:
                return HPower(edges[0][0], rng.randint(1, 3))
            k = rng.randint(1, len(edges))
            prefix = list(edges[:k])
            i, j, n = prefix[-1]
            a = pair.a_at(i, j)
            prefix[-1] = (i, j, n + rng.randint(-2 * a, 2 * a))
            return GWord(tuple(prefix))

        f, w = cut(m0), cut(m0)
        m = lcm(pair, f, w)
        if m is None:
            # disjoint: the bounded search finds no common multiple either
            assert not _common_multiples(pair, f, w, max_extra=2), (f, w)
            disjoint += 1
            continue
        checked += 1
        assert divides_by_witness(pair, f, m) and divides_by_witness(pair, w, m)
        family = _common_multiples(pair, f, w, max_extra=2)
        # m is in the enumerated family and divides every member, which pins
        # it as the unique brute-force minimum (divisibility is antisymmetric)
        assert m in family, (f, w, m)
        for cm in family:
            assert divides_by_witness(pair, m, cm), (f, w, m, cm)
    assert disjoint >= 50
    elapsed = time.monotonic() - start_time
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4: PASS - 500 intersecting pairs match the brute-force lcm, "
        f"and {disjoint} disjoint pairs have no common multiple ({elapsed:.1f}s)"
    )


def test_criterion_05_inverse_semigroup_axioms():
    rng = random.Random(105)
    for _ in range(1000):
        pair = random_pair(rng, n_max=3, a_max=3)
        x = random_isg(rng, pair)
        y = random_isg(rng, pair)
        z = random_isg(rng, pair)
        assert multiply(pair, multiply(pair, x, star(x)), x) == x
        assert star(multiply(pair, x, y)) == multiply(pair, star(y), star(x))
        assert multiply(pair, multiply(pair, x, y), z) == multiply(pair, x, multiply(pair, y, z))
        # the source projection of x and the range projection of y commute
        e = multiply(pair, star(x), x)
        f = multiply(pair, y, star(y))
        assert e == (x if isinstance(x, Zero) else triple(pair, x.right, 0, x.right))
        assert f == (y if isinstance(y, Zero) else triple(pair, y.left, 0, y.left))
        assert multiply(pair, e, f) == multiply(pair, f, e)
    print("\nACCEPTANCE 5: PASS - 1000 random triples satisfy the inverse-semigroup laws")


def _flatten(pair, lead, edges, trail):
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
            work[pos + 1][2] += c * pair.b_at(work[pos + 1][0], work[pos + 1][1])
        else:
            trail += c
    return tuple(tuple(e) for e in work), trail


def test_criterion_06_push_unitary_soundness():
    rng = random.Random(106)
    for _ in range(1000):
        pair = random_pair(rng, n_max=4, a_max=3)
        p = random_path_word(rng, pair, max_len=5)
        t = rng.randint(-8, 8)
        pushed, residual = push_unitary(pair, p.base, t, p.edges)
        assert _flatten(pair, t, p.edges, 0) == _flatten(pair, 0, pushed, residual)
    print("\nACCEPTANCE 6: PASS - 1000 carry propagations match the flattened normal form")


def test_criterion_07_fixed_point_laws():
    # (a) the halving loop admits no fixed points for small nonzero powers
    letters = [(1, 1, 1), (1, 1, 2)]
    for l in (1, -1, 2, -2, 3, -3, 4, -4):
        assert has_fixed_cylinder(D2, 1, l).value == "no"
        power = unitary(D2, 1, l)
        for pre_len in range(3):
            for per_len in range(1, 4):
                for pre in itertools.product(letters, repeat=pre_len):
                    for per in itertools.product(letters, repeat=per_len):
                        x = eventually_periodic(
                            PathWord(1, tuple(pre)), PathWord(1, tuple(per))
                        )
                        assert image_point(D2, power, x) != x
    # (b) proportional B fixes everything at the proportionality constant
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(1, 3)
        c = rng.randint(1, 3)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if not any(a[i]):
                a[i][rng.randrange(n)] = rng.randint(1, 3)
        b = [[c * a[i][j] for j in range(n)] for i in range(n)]
        pair = MatrixPair.from_rows(a, b)
        for vertex in pair.vertices:
            assert has_fixed_cylinder(pair, vertex, c).value == "yes"
        for _ in range(10):
            pre = random_path_word(rng, pair, max_len=2)
            per_edges = random_walk(rng, pair, pre.target, rng.randint(1, 3))
            if per_edges[-1][1] != pre.target:
                continue
            x = eventually_periodic(pre, PathWord(pre.target, per_edges))
            # the residual grows as c^k, so the image is read off a prefix
            # covering the preperiod and three period copies
            depth = len(x.preperiod) + 3 * len(x.period)
            assert act_on_periodic(pair, unitary(pair, x.preperiod.base, c), x, depth) == x.unfold(depth)
    # (c) generated fixed points really are fixed to depth 20
    verified = 0
    while verified < 100:
        pair = random_pair(rng, n_max=3, a_max=3)
        base = random_path_word(rng, pair, max_len=2)
        cyc = random_walk(rng, pair, base.target, rng.randint(1, 3))
        if cyc[-1][1] != base.target:
            continue
        s = triple(pair, PathWord(base.base, base.edges + cyc), rng.randint(-3, 3), base)
        omega = generate_fixed_point(pair, s, 20 + len(s.right))
        assert omega is not None
        out = act_on_prefix(pair, s, omega)
        assert not isinstance(out, Zero) and not out.right.edges
        cut = min(20, len(out.left))
        assert out.left.edges[:cut] == omega.edges[:cut]
        verified += 1
    print("\nACCEPTANCE 7: PASS - fixed-point emptiness, proportional fixity, and fixity to depth 20")


def test_criterion_08_essential_principality_bridge():
    rng = random.Random(108)
    seen = witnessed = confirmed = 0
    while seen < 50:
        pair = random_pair(rng, n_max=3, a_max=3, ensure_e=True)
        seen += 1
        escape = fixed_point_escape(pair, graph_facts(pair))
        assert escape.value in ("yes", "no")
        if escape.value == "yes":
            # the exact Yes survives a bounded search from every vertex
            # at +-1..+-12 and +- every simple-cycle ratio denominator
            exponents = set(range(1, 13)) | cycle_ratio_denominators(pair)
            for v in pair.vertices:
                for l in exponents:
                    for signed in (l, -l):
                        assert has_fixed_cylinder(pair, v, signed, 256).value != "yes"
        else:
            # the named power fixes a cylinder: the search never refutes it
            w, l = escape_witness(escape)
            result = has_fixed_cylinder(pair, w, l, 4096).value
            assert result != "no"
            witnessed += 1
            confirmed += result == "yes"
        verdict = analyze(pair).topologically_free
        if not graph_facts(pair).condition_l:
            assert verdict.value == "no"
        else:
            assert verdict.value == escape.value
        rep = analyze(pair)
        if rep.simple.value == "yes":
            assert rep.minimal.value == "yes" and rep.condition_l.value == "yes"
        if rep.purely_infinite_simple.value == "yes":
            assert rep.simple.value == "yes"
        if rep.topologically_free.value == "yes":
            assert rep.essentially_principal.value == "yes"
        assert rep.essentially_principal.value == rep.topologically_free.value
    assert confirmed >= 0.9 * witnessed
    print(
        f"\nACCEPTANCE 8: PASS - 50 condition-E pairs: exact escape agrees with the"
        f" fixed-cylinder search ({confirmed} of {witnessed} witnesses confirmed), freeness"
        " and consistency agree"
    )


def test_criterion_09_realization_certificates():
    start = time.monotonic()
    menu = [
        AbelianGroup(0, ()),
        AbelianGroup(1, ()),
        AbelianGroup(2, ()),
        AbelianGroup(0, (2,)),
        AbelianGroup(0, (6,)),
        AbelianGroup(1, (3,)),
    ]
    for g0 in menu:
        for g1 in menu:
            if g0.free_rank != g1.free_rank:
                with pytest.raises(UnrealizableWithSquareMatrices):
                    realize(g0, g1)
                continue
            cert = realize(g0, g1)
            assert cert.condition_e
            assert cert.irreducible
            assert cert.diagonal_conditions
            assert cert.result.k0 == g0 and cert.result.k1 == g1
            recheck = k_groups(cert.pair)
            assert recheck.k0 == g0 and recheck.k1 == g1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 9: PASS - realization round-trips with full certificates ({elapsed:.2f}s)")


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_criterion_10_smith_normal_form_bulk():
    rng = random.Random(110)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
        dec = smith_normal_form(m)
        u = [list(r) for r in dec.u]
        v = [list(r) for r in dec.v]
        assert mat_mul(mat_mul(u, m), v) == [list(r) for r in dec.d]
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        diag = dec.diagonal()
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        det = _det(m)
        if det != 0:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det)
    print("\nACCEPTANCE 10: PASS - 500 Smith decompositions verified exactly")


def test_criterion_11_groupoid_laws():
    rng = random.Random(111)
    checked = 0
    attempts = 0
    while checked < 120 and attempts < 3000:
        attempts += 1
        pair = random_pair(rng, n_max=3, a_max=2, ensure_e=True)
        pre = random_path_word(rng, pair, max_len=2)
        cyc = random_walk(rng, pair, pre.target, rng.randint(1, 3))
        if cyc[-1][1] != pre.target:
            continue
        x = eventually_periodic(pre, PathWord(pre.target, cyc))
        k = rng.randint(0, 2)
        right = x.unfold(k)
        back = random_backward_walk(rng, pair, right.target, rng.randint(0, 2))
        left = PathWord(back[0][0] if back else right.target, back)
        s = triple(pair, left, rng.randint(-2, 2), right)
        # a germ is a pair (element, point in its domain); [s, x]^-1 is
        # [s*, s . x], and [s, x] . [t, y] is [st, y] when t . y = x
        try:
            y = image_point(pair, s, x)
            x_back = image_point(pair, star(s), y)
        except DepthCapExceeded:
            continue
        checked += 1
        # [s,x]^-1^-1 = [s**, s* . (s . x)] = [s,x]
        assert x_back == x
        assert germ_equal(pair, star(star(s)), s, x) == "equal"
        # g . g^-1 = [ss*, y] is the unit at r(g) = y, and g^-1 . g = [s*s, x]
        # the unit at d(g) = x: every idempotent whose domain holds the point
        # has the germ of the vertex projection there
        range_unit, source_unit = multiply(pair, s, star(s)), multiply(pair, star(s), s)
        for unit, point in ((range_unit, y), (source_unit, x)):
            assert germ_equal(pair, unit, projection_q(pair, point.preperiod.base), point) == "equal"
        # unit composes trivially: [ss*, y] . [s, x] = [ss*s, x] = [s, x]
        assert germ_equal(pair, multiply(pair, range_unit, s), s, x) == "equal"
    assert checked >= 120
    print(f"\nACCEPTANCE 11: PASS - groupoid germ laws hold on {checked} sampled germs")
