"""Shared random generators for the test suite.

Everything is seeded; the acceptance module relies on the exact counts
being reproducible.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from katsura.invsemigroup import PathWord, Triple, triple
from katsura.matrices import MatrixPair
from katsura.semigroupoid import GWord, HPower

from oracles import simple_vertex_cycles


@pytest.fixture
def digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter sets no limit on integer digits")
    return limit


def random_pair(
    rng: random.Random,
    n_max: int = 4,
    a_max: int = 3,
    b_max: int = 3,
    ensure_e: bool = False,
) -> MatrixPair:
    """A valid pair: no zero A-row, B supported inside A.  With ensure_e,
    B is nonzero on the whole support."""
    n = rng.randint(1, n_max)
    a = [[rng.randint(0, a_max) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(a[i]):
            a[i][rng.randrange(n)] = rng.randint(1, a_max)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if a[i][j]:
                if ensure_e:
                    b[i][j] = rng.choice([x for x in range(-b_max, b_max + 1) if x])
                else:
                    b[i][j] = rng.randint(-b_max, b_max)
    return MatrixPair.from_rows(a, b)


def cycle_with_chords(
    rng: random.Random, n: int, chords: int, reach: int | None = None
) -> MatrixPair:
    """A directed n-cycle plus `chords` further arcs, each jumping at most
    `reach` steps ahead when given; A-entries 1..2 and B-entries nonzero
    on the whole support, so condition E holds."""
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < n + chords:
        i = rng.randrange(n)
        arcs.add((i, (i + rng.randint(2, reach)) % n if reach else rng.randrange(n)))
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i, j in sorted(arcs):
        a[i][j] = rng.randint(1, 2)
        b[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    return MatrixPair.from_rows(a, b)


def sparse_scc_pair(
    rng: random.Random, n_min: int = 4, n_max: int = 14, a_max: int = 3, b_max: int = 3
) -> MatrixPair:
    """A valid pair with condition E whose strongly connected components
    are known: the shuffled vertices are cut into up to 14 blocks, each
    block is a cycle (a later one-vertex block may carry no loop), some
    blocks get an inner chord, and every vertex of a later block may send,
    and a loopless one must send, an arc into an earlier block.  No arc
    runs from a block to a later one, so the blocks are the components."""
    n = rng.randint(n_min, n_max)
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 13))))
    blocks = [order[s:e] for s, e in zip([0] + cuts, cuts + [n])]
    arcs: set[tuple[int, int]] = set()
    for k, block in enumerate(blocks):
        if len(block) > 1 or k == 0 or rng.random() < 0.5:
            arcs |= {(block[t], block[(t + 1) % len(block)]) for t in range(len(block))}
        if len(block) > 2 and rng.random() < 0.5:
            arcs.add((rng.choice(block), rng.choice(block)))
        earlier = [u for b in blocks[:k] for u in b]
        for v in block:
            if earlier and (rng.random() < 0.4 or all(i != v for i, _ in arcs)):
                arcs.add((v, rng.choice(earlier)))
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i, j in arcs:
        a[i][j] = rng.randint(1, a_max)
        b[i][j] = rng.choice([x for x in range(-b_max, b_max + 1) if x])
    return MatrixPair.from_rows(a, b)


def direct_sum(p: MatrixPair, q: MatrixPair) -> MatrixPair:
    """The disjoint sum P + Q: Q's vertices are relabelled after P's."""
    pad_p, pad_q = [0] * q.n, [0] * p.n
    return MatrixPair.from_rows(
        [list(row) + pad_p for row in p.a] + [pad_q + list(row) for row in q.a],
        [list(row) + pad_p for row in p.b] + [pad_q + list(row) for row in q.b],
    )


def cycle_ratio_denominators(pair: MatrixPair) -> set[int]:
    """Denominators of the ratio products B/A around the simple cycles: the
    first exponents whose trace can stay integral around a loop."""
    out = set()
    for verts in simple_vertex_cycles(pair):
        ratio = Fraction(1)
        for t in range(len(verts)):
            i, j = verts[t], verts[(t + 1) % len(verts)]
            ratio *= Fraction(pair.b_at(i, j), pair.a_at(i, j))
        out.add(ratio.denominator)
    return out


def escape_witness(verdict) -> tuple[int, int]:
    """The vertex w and exponent l of the power u(w)^l named by a
    fixed-cylinder reason."""
    match = re.search(r"u\((\d+)\)\^(\d+)", verdict.reasons[0].text)
    return int(match.group(1)), int(match.group(2))


def random_walk(rng: random.Random, pair: MatrixPair, start: int, length: int) -> tuple:
    """Edges of a forward random walk; may be shorter than `length` never
    (every vertex has out-arcs)."""
    edges = []
    v = start
    for _ in range(length):
        w = rng.choice(pair.out_vertices(v))
        n = rng.randint(1, pair.a_at(v, w))
        edges.append((v, w, n))
        v = w
    return tuple(edges)


def random_backward_walk(rng: random.Random, pair: MatrixPair, end: int, length: int) -> tuple:
    """Edges of a backward walk into `end`; shortens when a vertex has no
    predecessors."""
    edges = []
    v = end
    for _ in range(length):
        preds = [u for u in pair.vertices if pair.a_at(u, v) >= 1]
        if not preds:
            break
        u = rng.choice(preds)
        n = rng.randint(1, pair.a_at(u, v))
        edges.insert(0, (u, v, n))
        v = u
    return tuple(edges)


def random_path_word(rng: random.Random, pair: MatrixPair, max_len: int) -> PathWord:
    start = rng.choice(list(pair.vertices))
    edges = random_walk(rng, pair, start, rng.randint(0, max_len))
    return PathWord(start, edges)


def random_isg(rng: random.Random, pair: MatrixPair, max_len: int = 4, t_max: int = 5) -> Triple:
    """A random nonzero element: two path words sharing their range vertex."""
    left = random_path_word(rng, pair, max_len)
    right_edges = random_backward_walk(rng, pair, left.target, rng.randint(0, max_len))
    base = right_edges[0][0] if right_edges else left.target
    right = PathWord(base, right_edges)
    return triple(pair, left, rng.randint(-t_max, t_max), right)


def random_gword(rng: random.Random, pair: MatrixPair, max_len: int, spread: int = 8) -> GWord:
    """A standard-form g-word with a random (possibly wild) final offset."""
    start = rng.choice(list(pair.vertices))
    edges = list(random_walk(rng, pair, start, rng.randint(1, max_len)))
    i, j, _ = edges[-1]
    edges[-1] = (i, j, rng.randint(-spread, spread))
    return GWord(tuple(edges))


def random_sgp(rng: random.Random, pair: MatrixPair, max_len: int = 4):
    if rng.random() < 0.25:
        return HPower(rng.choice(list(pair.vertices)), rng.randint(1, 5))
    return random_gword(rng, pair, max_len)


def random_raw_word(rng: random.Random, pair: MatrixPair, max_len: int = 8) -> list:
    """A composable raw word mixing h-atoms and g-atoms."""
    from katsura.semigroupoid import HAtom

    length = rng.randint(1, max_len)
    word = []
    v = rng.choice(list(pair.vertices))
    for _ in range(length):
        if rng.random() < 0.3:
            word.append(HAtom(v, rng.randint(1, 3)))
        else:
            w = rng.choice(pair.out_vertices(v))
            word.append((v, w, rng.randint(-6, 6)))
            v = w
    if all(isinstance(x, HAtom) for x in word):
        word.append((v, rng.choice(pair.out_vertices(v)), rng.randint(-6, 6)))
    return word
