"""The inverse semigroup of partial isometries generated by the pair (A, B).

A nonzero element is a triple (I, t, J): a reduced path word I, an integer
power of the vertex unitary at the common range vertex, and a reduced path
word J acting by its adjoint.  Reduced means every offset lies in
``[1, A[i][j]]``.  Multiplication normalizes eagerly via carry propagation
(`push_unitary`), so element equality is structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructuralError
from .matrices import Edge, MatrixPair


@dataclass(frozen=True)
class PathWord:
    """A composable sequence of in-range edges; `base` carries the source
    vertex so that the empty word at each vertex is representable."""

    base: int
    edges: tuple[Edge, ...] = ()

    @property
    def source(self) -> int:
        return self.base

    @property
    def target(self) -> int:
        return self.edges[-1][1] if self.edges else self.base

    def __len__(self) -> int:
        return len(self.edges)

    def __post_init__(self):
        if self.edges and self.edges[0][0] != self.base:
            raise StructuralError("base vertex disagrees with the first edge")
        for (_, j, _), (i2, _, _) in zip(self.edges, self.edges[1:]):
            if j != i2:
                raise StructuralError("path edges do not chain")


def check_path_word(pair: MatrixPair, p: PathWord) -> PathWord:
    if not 1 <= p.base <= pair.n:
        raise StructuralError(f"vertex {p.base} out of range")
    for e in p.edges:
        if not pair.has_edge(e):
            raise StructuralError(f"edge {e} is not an edge of the pair's graph")
    return p


def empty_path(vertex: int) -> PathWord:
    return PathWord(vertex)


def is_prefix(p: PathWord, q: PathWord) -> bool:
    """p a left factor of q, source vertices included."""
    return p.base == q.base and q.edges[: len(p.edges)] == p.edges


@dataclass(frozen=True)
class Zero:
    """The zero of the inverse semigroup."""


ZERO = Zero()


@dataclass(frozen=True)
class Triple:
    left: PathWord
    exponent: int
    right: PathWord

    @property
    def range_vertex(self) -> int:
        return self.left.target


ISgElement = Triple | Zero


def push_unitary(
    pair: MatrixPair, vertex: int, exponent: int, edges: tuple[Edge, ...]
) -> tuple[tuple[Edge, ...], int]:
    """Move a unitary power across a reduced path word.

    Returns (edges', exponent') such that  u_vertex^exponent . s_edges  equals
    s_edges' . u^exponent'  at the path's range vertex.  Per edge the offset
    shifts by exponent*B, is folded back into [1, A], and the fold count
    carries to the next edge.
    """
    if edges and edges[0][0] != vertex:
        raise StructuralError(
            f"path starts at {edges[0][0]}, not at the unitary's vertex {vertex}"
        )
    t = exponent
    out = []
    for i, j, n in edges:
        t, r = divmod(n - 1 + t * pair.b[i - 1][j - 1], pair.a[i - 1][j - 1])
        out.append((i, j, r + 1))
    return tuple(out), t


def triple(pair: MatrixPair, left: PathWord, exponent: int, right: PathWord) -> Triple:
    """Normalized constructor.  A unitary whose B-row vanishes identically is
    the range projection itself, so its power collapses to zero."""
    if left.target != right.target:
        raise StructuralError("left and right paths must share their range vertex")
    if exponent and pair.b_row_is_zero(left.target):
        exponent = 0
    return Triple(left, exponent, right)


def generator_s(pair: MatrixPair, i: int, j: int, n: int) -> Triple:
    """The partial isometry for an edge; out-of-range offsets normalize by
    folding the excess into a trailing unitary power."""
    if pair.a_at(i, j) == 0:
        raise StructuralError(f"({i},{j}) is not a support arc")
    edges, carry = push_unitary(pair, i, 0, ((i, j, n),))
    return triple(pair, PathWord(i, edges), carry, empty_path(j))


def unitary(pair: MatrixPair, vertex: int, exponent: int = 1) -> Triple:
    if not 1 <= vertex <= pair.n:
        raise StructuralError(f"vertex {vertex} out of range")
    return triple(pair, empty_path(vertex), exponent, empty_path(vertex))


def projection_q(pair: MatrixPair, vertex: int) -> Triple:
    return unitary(pair, vertex, 0)


def path_isometry(pair: MatrixPair, p: PathWord) -> Triple:
    """s_p as an element: the word with trivial unitary part and empty adjoint."""
    check_path_word(pair, p)
    return triple(pair, p, 0, empty_path(p.target))


def star(x: ISgElement) -> ISgElement:
    if isinstance(x, Zero):
        return ZERO
    return Triple(x.right, -x.exponent, x.left)


def multiply(pair: MatrixPair, x: ISgElement, y: ISgElement) -> ISgElement:
    """Product in normal form; zero-absorbing and total."""
    if isinstance(x, Zero) or isinstance(y, Zero):
        return ZERO
    if is_prefix(x.right, y.left):
        rest = y.left.edges[len(x.right.edges):]
        pushed, carry = push_unitary(pair, x.right.target, x.exponent, rest)
        left = PathWord(x.left.base, x.left.edges + pushed)
        return triple(pair, left, carry + y.exponent, y.right)
    if is_prefix(y.left, x.right):
        rest = x.right.edges[len(y.left.edges):]
        pushed, carry = push_unitary(pair, y.left.target, -y.exponent, rest)
        right = PathWord(y.right.base, y.right.edges + pushed)
        return triple(pair, x.left, x.exponent - carry, right)
    return ZERO


def is_idempotent(x: ISgElement) -> bool:
    return isinstance(x, Zero) or (x.exponent == 0 and x.left == x.right)


def range_projection(pair: MatrixPair, x: ISgElement) -> ISgElement:
    if isinstance(x, Zero):
        return ZERO
    return triple(pair, x.left, 0, x.left)


def source_projection(pair: MatrixPair, x: ISgElement) -> ISgElement:
    if isinstance(x, Zero):
        return ZERO
    return triple(pair, x.right, 0, x.right)
