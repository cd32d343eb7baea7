"""Whole-report invariants: state splitting and disjoint sums.

An out-split or an in-split of one vertex v (`conftest.out_split`,
`conftest.in_split`) changes N and the shape of both matrices, yet every
verdict value and both K-groups must stay the same.  A disjoint sum P + Q
(`conftest.direct_sum`) must report what P and Q report together.

K-groups, proved.  Let M = N + 1 and let D be the M x N 0/1 matrix with
D[w][x] = 1 iff w is x or the copy of x.  Each move factors A through D,
and B through D in the same way:
- Out-split: A = R S and A' = S R with R = D^T.  S is M x N, and S[w][x]
  is A's entry on the arc from w's original vertex to x when x lies in w's
  part of the out-neighbours (all of them for w other than v and its copy).
  Each copied arc keeps its B-entry, so B = R S_B and B' = S_B R.
- In-split: A = R D and A' = D R.  R is N x M, and R[x][w] is A's entry on
  the arc from x into w's original vertex when x lies in w's part of the
  in-neighbours.  Likewise B = R_B D and B' = D R_B.
For any integer R (N x M) and S (M x N),

    [[I, R], [S, I]] = [[I, R], [0, I]] . [[I - RS, 0], [0, I]] . [[I, 0], [S, I]]
                     = [[I, 0], [S, I]] . [[I, 0], [0, I - SR]] . [[I, R], [0, I]],

and the triangular factors are unimodular.  So (I_N - RS) + I_M and
I_N + (I_M - SR) are equivalent over Z, and coker(I - RS) = coker(I - SR).
The kernel rank of a square integer matrix is the free rank of its
cokernel, so the kernels agree too.  Applied to A and to B, this leaves
K_0 = coker(I - A) + ker(I - B) and K_1 = coker(I - B) + ker(I - A)
unchanged.  For a disjoint sum, I - A and I - B are block diagonal, so
each group is the direct sum of P's and Q's.

Verdicts, proved.  Condition E: every copied arc keeps its B-entry, so B is
nonzero on the support of A' iff on that of A.  `hausdorff` reads only E.
`condition0`, `nuclear` and `etale` are constant on valid pairs.  For a
disjoint sum: E, L and K are conditions on each arc or each cycle, so they
hold on P + Q iff on both; P + Q is not strongly connected and has at
least two cyclic components, so it is neither irreducible nor minimal, and
`simple` is never `yes` without minimality.

Verdicts, argued but only tested.  Each move maps the cycles of the split
graph onto those of the original, arc by arc with A- and B-entries, and
maps strongly connected components onto components.  So the products of
B/A around cycles, the exits of cycles, and which components carry cycles
correspond.  L, K, irreducibility, minimality and the fixed-point escape
read only these facts, and the remaining verdicts derive from them and E.
On the level of groupoids, an out-split conjugates the path spaces and
carries the cocycle along, and an in-split gives an equivalent groupoid
(Bates-Pask 2004 for graph algebras).  The self-similar version
(Exel-Pardo 2017) is not written out here.  `topologically_free` as a
conjunction over a disjoint sum is likewise only tested.
"""

from __future__ import annotations

import random

import pytest

from katsura.decisions import analyze
from katsura.ktheory import abelian_group

from conftest import direct_sum, in_split, out_split, report_pairs

CONJUNCTIONS = ("condition_e", "condition_l", "condition_k", "topologically_free")


def _values(report) -> dict[str, str]:
    return {name: v.value for name, v in report.verdict_fields().items()}


def _neighbours(pair, v: int, move) -> list[int]:
    """v's out-neighbours for an out-split, its in-neighbours for an in-split."""
    if move is out_split:
        return [j for j in pair.vertices if pair.a_at(v, j)]
    return [x for x in pair.vertices if pair.a_at(x, v)]


@pytest.mark.parametrize("move", [out_split, in_split], ids=["out", "in"])
def test_splitting_leaves_the_report_unchanged(move):
    rng = random.Random(49)
    seen: dict[str, set[str]] = {}
    checked = 0
    for pair in report_pairs(rng, 1500):
        splittable = [v for v in pair.vertices if len(_neighbours(pair, v, move)) >= 2]
        if not splittable:
            continue
        v = rng.choice(splittable)
        around = _neighbours(pair, v, move)
        part = set(rng.sample(around, rng.randint(1, len(around) - 1)))
        split = move(pair, v, part)
        before, after = analyze(pair), analyze(split)
        values = _values(before)
        assert values == _values(after), (pair, v, part)
        assert before.kgroups == after.kgroups, (pair, v, part)
        for name, value in values.items():
            seen.setdefault(name, set()).add(value)
        checked += 1
    assert checked >= 1000
    assert seen["simple"] == {"yes", "no", "unknown"}
    assert all(seen[name] == {"yes", "no"} for name in ("topologically_free", "minimal", "condition_e"))


def test_disjoint_sum_of_reports():
    rng = random.Random(50)
    pairs = report_pairs(rng, 2000)
    seen = set()
    for p, q in zip(pairs[::2], pairs[1::2]):
        rp, rq, total = analyze(p), analyze(q), analyze(direct_sum(p, q))
        vp, vq, vt = _values(rp), _values(rq), _values(total)
        for name in CONJUNCTIONS:
            both = vp[name] == vq[name] == "yes"
            assert vt[name] == ("yes" if both else "no"), (name, p, q)
            seen.add((name, vt[name]))
        assert vt["minimal"] == vt["irreducible"] == "no", (p, q)
        assert vt["simple"] != "yes", (p, q)
        for k in ("k0", "k1"):
            gp, gq = getattr(rp.kgroups, k), getattr(rq.kgroups, k)
            expected = abelian_group(gp.free_rank + gq.free_rank, list(gp.torsion + gq.torsion))
            assert getattr(total.kgroups, k) == expected, (k, p, q)
    assert len(seen) == 2 * len(CONJUNCTIONS)
