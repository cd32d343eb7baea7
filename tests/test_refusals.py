"""Refusals of the library's constructors and entry points that the other
tests do not reach, each with its type and message.

`realize` checks its own answer twice; the checks can fail only if
`k_groups` or `graph_facts` is wrong, so a wrong one is patched in.
"""

from __future__ import annotations

import re

import pytest

from katsura import ktheory
from katsura.decisions import Reason, Verdict
from katsura.errors import CertificationError, DomainError, StructuralError
from katsura.invsemigroup import PathWord, triple
from katsura.ktheory import AbelianGroup, KTheoryResult, realize, smith_normal_form
from katsura.matrices import MatrixPair
from katsura.pathspace import eventually_periodic
from katsura.semigroupoid import HPower, standard_form

E1 = MatrixPair.from_rows([[2, 1], [1, 2]], [[1, 1], [1, 1]])
NO_ARC_12 = MatrixPair.from_rows([[1, 0], [1, 1]], [[1, 0], [1, 1]])

REFUSALS = [
    (lambda: Verdict("maybe", (Reason("t", "x"),)), StructuralError, "bad verdict value 'maybe'"),
    (lambda: PathWord(2, ((1, 1, 1),)), StructuralError, "base vertex disagrees with the first edge"),
    (
        lambda: triple(E1, PathWord(1, ((1, 2, 1),)), 0, PathWord(1)),
        StructuralError,
        "left and right paths must share their range vertex",
    ),
    (lambda: smith_normal_form([]), StructuralError, "matrix must be nonempty"),
    (lambda: AbelianGroup(-1), StructuralError, "free rank must be nonnegative"),
    (lambda: AbelianGroup(0, (1,)), StructuralError, "invariant factors must be >= 2"),
    (lambda: eventually_periodic(PathWord(1), PathWord(1)), StructuralError, "period must be nonempty"),
    (lambda: HPower(1, 0), DomainError, "h-power exponents are restricted to t >= 1"),
    (lambda: standard_form(E1, []), DomainError, "empty word"),
    (lambda: standard_form(NO_ARC_12, [(1, 2, 1)]), DomainError, "(1,2) is not a support arc"),
]


@pytest.mark.parametrize("build, error, message", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_refusal(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_realize_refuses_wrong_k_groups(monkeypatch):
    monkeypatch.setattr(ktheory, "k_groups", lambda pair: KTheoryResult(AbelianGroup(0), AbelianGroup(0)))
    with pytest.raises(CertificationError, match=r"^constructed pair has K-groups .*, expected \("):
        realize(AbelianGroup(0, (2,)), AbelianGroup(0))


def test_realize_refuses_a_pair_without_condition_e(monkeypatch):
    facts = ktheory.graph_facts
    monkeypatch.setattr(ktheory, "graph_facts", lambda pair: facts(pair)._replace(condition_e=False))
    with pytest.raises(CertificationError, match="^constructed pair violates a structural clause: "):
        realize(AbelianGroup(0, (2,)), AbelianGroup(0))
