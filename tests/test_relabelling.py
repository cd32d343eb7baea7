"""Element commands commute with relabelling the vertices.

A permutation π of the vertices carries a pair to an isomorphic one, with
A[π(i)][π(j)] = A[i][j] and likewise for B.  It carries every text along:
the vertices of each s/g/h/u/q atom, of each path edge and of each `@v`
are renamed, and offsets and exponents stay.  So every answer must be the
renamed answer.  With N ≤ 3 each vertex is one digit, so a renamed text
has the same length and every offset in it is unchanged; a refused call is
refused with the same exit code and `kind`.  A vertex out of range stays
as it is, and still is out of range.

The texts are those of the golden element table (`lcm`, `mul`,
`fixedpoint`, `act` on periodic and finite paths, `normalize`, `germ-eq`),
refused ones among them, on pairs with and without zero B-rows.
"""

from __future__ import annotations

import json
import random
import re

from katsura.matrices import MatrixPair

from conftest import random_pair
from test_golden import _run, _write_pair, element_calls, gap_calls

# the vertices in a text: the first two integers of an s/g atom or a path
# edge, the integer of a u/q/h atom, and the integer after `@`
_VERTICES = re.compile(r"(?<=\()\d+,\d+(?=,)|(?<=[uqh]\()\d+(?=\))|(?<=@)\d+")


def relabel_text(text: str, perm: dict[int, int]) -> str:
    """The text with each vertex v in range renamed perm[v]."""

    def rename(m: re.Match) -> str:
        return ",".join(str(perm.get(int(v), v)) for v in m.group().split(","))

    return _VERTICES.sub(rename, text)


def relabel_pair(pair: MatrixPair, perm: dict[int, int]) -> MatrixPair:
    back = {w: v for v, w in perm.items()}
    a = [[pair.a_at(back[i], back[j]) for j in pair.vertices] for i in pair.vertices]
    b = [[pair.b_at(back[i], back[j]) for j in pair.vertices] for i in pair.vertices]
    return MatrixPair.from_rows(a, b)


def _draw(rng: random.Random, k: int) -> MatrixPair:
    """A pair with N ≤ 3; every third has zero B-rows."""
    pair = random_pair(rng, n_max=3, ensure_e=rng.random() < 0.5)
    if k % 3:
        return pair
    zero = set(rng.sample(pair.vertices, rng.randint(1, pair.n)))
    return MatrixPair.from_rows(pair.a, [[0] * pair.n if i in zero else row for i, row in enumerate(pair.b, 1)])


def test_relabel_text():
    perm = {1: 3, 2: 1, 3: 2}
    assert relabel_text("s(1,2,12).u(3)^-2.(s(2,3,1))*.q(1)", perm) == "s(3,1,12).u(2)^-2.(s(1,2,1))*.q(3)"
    assert relabel_text("g(1,4,1).h(2)^3", perm) == "g(3,4,1).h(1)^3"
    assert relabel_text("[(1,2,1), (2,3,2)] ~ [(3,3,1)]@3", perm) == "[(3,1,1), (1,2,2)] ~ [(2,2,1)]@2"
    assert relabel_text("[]@2 residual -12", perm) == "[]@1 residual -12"


def test_element_commands_commute_with_relabelling(tmp_path):
    rng = random.Random(45)
    seen: dict[str, set[str]] = {}
    zero_b_rows = 0
    for k in range(300):
        pair = _draw(rng, k)
        zero_b_rows += bool(pair.zero_b_rows)
        perm = dict(zip(pair.vertices, rng.sample(pair.vertices, pair.n)))
        path = _write_pair(tmp_path / "pair.json", pair)
        renamed = _write_pair(tmp_path / "renamed.json", relabel_pair(pair, perm))
        # the two call families of the golden table on alternate pairs, every
        # other call of each, which keeps the test under 1.5 s
        for command, argv in (gap_calls if k % 2 else element_calls)(rng, pair, path)[::2]:
            if command == "act":
                command = "act periodic" if "~" in argv[2] else "act finite"
            code, out, err = _run(argv)
            code2, out2, err2 = _run([renamed if arg == path else relabel_text(arg, perm) for arg in argv])
            assert code2 == code, (pair, perm, argv, err, err2)
            if code:
                doc, doc2 = json.loads(err), json.loads(err2)
                assert (doc2["kind"], doc2.get("position")) == (doc["kind"], doc.get("position")), (pair, perm, argv)
                seen.setdefault(command, set()).add(doc["kind"])
            else:
                assert out2 == relabel_text(out, perm), (pair, perm, argv, out, out2)
                seen.setdefault(command, set()).add("answered")
    assert zero_b_rows >= 100
    assert set(seen) == {"lcm", "mul", "fixedpoint", "act periodic", "act finite", "normalize", "germ-eq"}
    # every command answered some calls, and all but `act` on a periodic
    # point (whose drawn texts are all valid) refused others
    assert all("answered" in kinds for kinds in seen.values()), seen
    assert {command for command, kinds in seen.items() if len(kinds) > 1} == set(seen) - {"act periodic"}, seen
