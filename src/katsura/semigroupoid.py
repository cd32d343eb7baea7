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


def _atom_ends(atom: RawAtom) -> tuple[int, int]:
    if isinstance(atom, HAtom):
        return atom.vertex, atom.vertex
    i, j, _ = atom
    return i, j


def _check_raw(pair: MatrixPair, word: Sequence[RawAtom]) -> None:
    if not word:
        raise CompositionError("empty word")
    for atom in word:
        if isinstance(atom, HAtom):
            if not 1 <= atom.vertex <= pair.n:
                raise CompositionError(f"vertex {atom.vertex} out of range")
        else:
            i, j, _ = atom
            if not (1 <= i <= pair.n and 1 <= j <= pair.n) or pair.a_at(i, j) == 0:
                raise CompositionError(f"({i},{j}) is not a support arc")
    for left, right in zip(word, word[1:]):
        if _atom_ends(left)[1] != _atom_ends(right)[0]:
            raise CompositionError(
                f"non-composable adjacency: {left!r} then {right!r}"
            )


def standard_form(pair: MatrixPair, word: Sequence[RawAtom]) -> SgpElement:
    """Normalize a raw word: absorb h-atoms into neighboring g-atoms, then
    reduce interior offsets left to right.  The result is the unique
    standard form of the element the word denotes."""
    _check_raw(pair, word)
    atoms = list(word)
    if all(isinstance(a, HAtom) for a in atoms):
        total = sum(a.exponent for a in atoms)
        if total < 1:
            raise DomainError(
                f"pure h-word at vertex {atoms[0].vertex} has nonpositive exponent sum {format_int(total)}"
            )
        return HPower(atoms[0].vertex, total)

    edges: list[Edge] = []
    pending = 0  # h-exponent waiting to be absorbed into the next g-atom
    for atom in atoms:
        if isinstance(atom, HAtom):
            pending += atom.exponent
        else:
            i, j, n = atom
            edges.append((i, j, n + pending * pair.b_at(i, j)))
            pending = 0
    # fold every interior offset into [1, A], carrying into the next letter;
    # a trailing h-run absorbs into the last g through its A-shift
    folded, carry = push_unitary(pair, edges[0][0], 0, tuple(edges[:-1]))
    i, j, n = edges[-1]
    return GWord(folded + ((i, j, n + carry * pair.b_at(i, j) + pending * pair.a_at(i, j)),))


def compose(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> SgpElement | None:
    """Partial composition; None when the pair is not composable.  The
    semigroupoid has no zero, so undefined is distinct from any element."""
    if target(f) != source(gel):
        return None
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return HPower(f.vertex, f.exponent + gel.exponent)
    word: list[RawAtom] = []
    for e in (f, gel):
        if isinstance(e, HPower):
            word.append(HAtom(e.vertex, e.exponent))
        else:
            word.extend(e.edges)
    return standard_form(pair, word)


def intersects(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> bool:
    """Whether f and gel admit a common multiple."""
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return f.vertex == gel.vertex
    if isinstance(f, HPower):
        return gel.source == f.vertex
    if isinstance(gel, HPower):
        return f.source == gel.vertex
    # the shorter word agrees with the longer one on every letter but its
    # last, which has the same arc and an offset congruent mod A
    short, long_ = (f, gel) if len(f) <= len(gel) else (gel, f)
    k = len(short)
    i, j, n = short.edges[-1]
    i2, j2, m = long_.edges[k - 1]
    return (
        short.edges[:-1] == long_.edges[: k - 1]
        and (i, j) == (i2, j2)
        and (m - n) % pair.a_at(i, j) == 0
    )


def lcm(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> SgpElement | None:
    """The unique least common multiple of an intersecting pair; None if disjoint."""
    if not intersects(pair, f, gel):
        return None
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return HPower(f.vertex, max(f.exponent, gel.exponent))
    if isinstance(f, HPower):
        return gel
    if isinstance(gel, HPower):
        return f
    if len(f) != len(gel):
        return f if len(f) > len(gel) else gel
    # equal length and congruent finals: the larger final offset wins
    return f if f.edges[-1][2] >= gel.edges[-1][2] else gel
