"""The path semigroupoid attached to a pair (A, B).

Elements come in two shapes: positive powers of a vertex loop generator
``h(i)``, and words in the arrow generators ``g(i, j, n)``.  The defining
relations shift offsets:

    g(i,j,n) . h(j)    =  g(i,j, n + A[i][j])
    h(i)     . g(i,j,n) =  g(i,j, n + B[i][j])

Every g-word has a unique standard form in which all offsets except the
last lie in ``[1, A[i][j]]``; the final offset is a free integer.  All
operations here normalize eagerly, so equality of elements is structural
equality of their standard forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import CompositionError, DomainError, format_int
from .invsemigroup import push_unitary
from .matrices import Edge, MatrixPair


@dataclass(frozen=True)
class HAtom:
    """Raw input atom h(vertex)^exponent.  Exponents may be any integer in a
    raw word; only a pure-h word must end up with a positive total."""

    vertex: int
    exponent: int = 1


RawAtom = Union[HAtom, Edge]


@dataclass(frozen=True)
class HPower:
    """h(vertex)^exponent with exponent >= 1."""

    vertex: int
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise DomainError("h-power exponents are restricted to t >= 1")


@dataclass(frozen=True)
class GWord:
    """A g-word in standard form: interior offsets in range, final offset free."""

    edges: tuple[Edge, ...]

    @property
    def source(self) -> int:
        return self.edges[0][0]

    @property
    def target(self) -> int:
        return self.edges[-1][1]

    def __len__(self) -> int:
        return len(self.edges)


SgpElement = Union[HPower, GWord]


def source(e: SgpElement) -> int:
    return e.vertex if isinstance(e, HPower) else e.source


def target(e: SgpElement) -> int:
    return e.vertex if isinstance(e, HPower) else e.target


def _spell(atom: RawAtom) -> str:
    """An atom as the element grammar spells it."""
    if isinstance(atom, HAtom):
        return f"h({atom.vertex})" + ("" if atom.exponent == 1 else f"^{format_int(atom.exponent)}")
    return "g({},{},{})".format(*map(format_int, atom))


def standard_form(pair: MatrixPair, word: Sequence[RawAtom]) -> SgpElement:
    """The unique standard form of the element a raw word denotes, in one
    pass: each atom is checked against the pair and its left neighbour and
    absorbed in the same step.  Of several faults, the leftmost is reported."""
    if not word:
        raise CompositionError("empty word")
    edges: list[Edge] = []
    pending = 0  # h-exponent waiting to be absorbed into the next g-atom
    end = 0  # the target vertex of the atoms read so far
    for k, atom in enumerate(word):
        if isinstance(atom, HAtom):
            i = j = atom.vertex
            if not 1 <= i <= pair.n:
                raise CompositionError(f"vertex {i} out of range")
            pending += atom.exponent
        else:
            i, j, n = atom
            if not (1 <= i <= pair.n and 1 <= j <= pair.n) or pair.a_at(i, j) == 0:
                raise CompositionError(f"({i},{j}) is not a support arc")
            edges.append((i, j, n + pending * pair.b_at(i, j)))
            pending = 0
        if k and i != end:
            raise CompositionError(f"non-composable adjacency: {_spell(word[k - 1])} then {_spell(atom)}")
        end = j
    if not edges:
        if pending < 1:
            raise DomainError(f"pure h-word at vertex {end} has nonpositive exponent sum {format_int(pending)}")
        return HPower(end, pending)
    # fold every interior offset into [1, A], carrying into the next letter;
    # a trailing h-run absorbs into the last g through its A-shift
    folded, carry = push_unitary(pair, edges[0][0], 0, tuple(edges[:-1]))
    i, j, n = edges[-1]
    return GWord(folded + ((i, j, n + carry * pair.b_at(i, j) + pending * pair.a_at(i, j)),))


def _atoms(e: SgpElement) -> list[RawAtom]:
    """An element as a raw word: an h-power as one h-atom, a g-word as its edges."""
    return [HAtom(e.vertex, e.exponent)] if isinstance(e, HPower) else list(e.edges)


def compose(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> SgpElement | None:
    """Partial composition; None when the pair is not composable.  The
    semigroupoid has no zero, so undefined is distinct from any element.
    Otherwise the product is the standard form of the two words written one
    after the other."""
    if target(f) != source(gel):
        return None
    return standard_form(pair, _atoms(f) + _atoms(gel))


def lcm(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> SgpElement | None:
    """The unique least common multiple of f and gel; None when they are
    disjoint, that is, have no common multiple."""
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return HPower(f.vertex, max(f.exponent, gel.exponent)) if f.vertex == gel.vertex else None
    if isinstance(f, HPower):
        return gel if gel.source == f.vertex else None
    if isinstance(gel, HPower):
        return f if f.source == gel.vertex else None
    # two g-words intersect iff the shorter agrees with the longer on every
    # letter but its last, which has the same arc and an offset congruent
    # mod A; then the longer word, or at equal length the larger final
    # offset, is the lcm
    short, long_ = (f, gel) if len(f) <= len(gel) else (gel, f)
    k = len(short)
    i, j, n = short.edges[-1]
    i2, j2, m = long_.edges[k - 1]
    if short.edges[:-1] != long_.edges[: k - 1] or (i, j) != (i2, j2) or (m - n) % pair.a_at(i, j):
        return None
    return long_ if len(long_) > k or m >= n else short
