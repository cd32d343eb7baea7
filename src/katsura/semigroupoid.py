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


def h(vertex: int, exponent: int = 1) -> HAtom:
    return HAtom(vertex, exponent)


def g(i: int, j: int, n: int) -> Edge:
    return (i, j, n)


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


def _gword_prefix_data(pair: MatrixPair, f: GWord, w: GWord) -> tuple[bool, int]:
    """For len(f) <= len(w): does f agree with w on arcs and interior offsets,
    with final offsets congruent mod A?  Returns (agrees, offset_gap) where
    offset_gap = w_k - f_k at f's final position."""
    k = len(f)
    for t in range(k):
        fi, fj, fn = f.edges[t]
        wi, wj, wn = w.edges[t]
        if (fi, fj) != (wi, wj):
            return False, 0
        if t < k - 1 and fn != wn:
            return False, 0
    fn = f.edges[k - 1][2]
    wn = w.edges[k - 1][2]
    i, j = f.edges[k - 1][0], f.edges[k - 1][1]
    gap = wn - fn
    if gap % pair.a_at(i, j) != 0:
        return False, 0
    return True, gap


def intersects(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> bool:
    """Whether f and gel admit a common multiple."""
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return f.vertex == gel.vertex
    if isinstance(f, HPower):
        return gel.source == f.vertex
    if isinstance(gel, HPower):
        return f.source == gel.vertex
    short, long_ = (f, gel) if len(f) <= len(gel) else (gel, f)
    agrees, _ = _gword_prefix_data(pair, short, long_)
    return agrees


def divides(pair: MatrixPair, f: SgpElement, gel: SgpElement) -> bool:
    """f = gel, or some right factor extends f to gel."""
    if f == gel:
        return True
    if isinstance(f, HPower) and isinstance(gel, HPower):
        return f.vertex == gel.vertex and f.exponent < gel.exponent
    if isinstance(f, HPower):
        return gel.source == f.vertex
    if isinstance(gel, HPower):
        return False
    if len(f) > len(gel):
        return False
    agrees, gap = _gword_prefix_data(pair, f, gel)
    if not agrees:
        return False
    if len(f) < len(gel):
        return True
    return gap > 0  # equal length: gel = f . h^t needs t >= 1


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


def finite_partition(pair: MatrixPair, root: int, elem: SgpElement) -> list[SgpElement]:
    """A finite pairwise-disjoint cover of everything composable after h(root),
    containing `elem`.

    Built by expanding a rooted tree along elem's edges: at each interior
    depth take all sibling first steps except the one elem continues with;
    at the final depth take the full sibling family inside elem's offset
    window [tA+1, (t+1)A].
    """
    if source(elem) != root:
        raise DomainError(f"element does not start at vertex {root}")
    if isinstance(elem, HPower):
        return [HPower(root, 1)]

    parts: list[SgpElement] = []
    prefix: tuple[Edge, ...] = ()
    for depth in range(len(elem) - 1):
        i, j, m = elem.edges[depth]
        for l in pair.out_vertices(i):
            for n in range(1, pair.a_at(i, l) + 1):
                if (l, n) != (j, m):
                    parts.append(GWord(prefix + ((i, l, n),)))
        prefix += ((i, j, m),)
    i, j, m = elem.edges[-1]
    a = pair.a_at(i, j)
    window = (m - ((m - 1) % a + 1)) // a  # the unique t with m in [tA+1, (t+1)A]
    for l in pair.out_vertices(i):
        al = pair.a_at(i, l)
        for n in range(1, al + 1):
            parts.append(GWord(prefix + ((i, l, n + window * al),)))
    return parts
