"""The inverse semigroup of partial isometries generated by the pair (A, B).

A nonzero element is a triple (I, t, J): a reduced path word I, an integer
power of the vertex unitary at the common range vertex, and a reduced path
word J acting by its adjoint.  Reduced means every offset lies in
``[1, A[i][j]]``.  Products are folded factor by factor into this normal
form (`_Product`), so element equality is structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import LETTER_BUDGET, DomainError, StructuralError
from .matrices import Edge, MatrixPair


@dataclass(frozen=True)
class PathWord:
    """A composable sequence of in-range edges; `base` carries the source
    vertex so that the empty word at each vertex is representable."""

    base: int
    edges: tuple[Edge, ...] = ()

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
    """Normalized constructor.  At a vertex whose B-row is zero (one of
    `pair.zero_b_rows`) the unitary is the range projection itself, so its
    power collapses to exponent 0."""
    if left.target != right.target:
        raise StructuralError("left and right paths must share their range vertex")
    if exponent and left.target in pair.zero_b_rows:
        exponent = 0
    return Triple(left, exponent, right)


def star(x: ISgElement) -> ISgElement:
    if isinstance(x, Zero):
        return ZERO
    return Triple(x.right, -x.exponent, x.left)


# A factor s_K u^t s_J* as the plain tuple (K base, K edges, t, J base,
# J edges), with reduced K and J; None is zero.  Products are folded over
# factors, so an element is built only once a product is done.
Factor = tuple[int, Sequence[Edge], int, int, Sequence[Edge]] | None


def _factor(x: ISgElement) -> Factor:
    return None if isinstance(x, Zero) else (x.left.base, x.left.edges, x.exponent, x.right.base, x.right.edges)


def _element(pair: MatrixPair, f: Factor) -> ISgElement:
    if f is None:
        return ZERO
    k_base, k, t, j_base, j = f
    return triple(pair, PathWord(k_base, tuple(k)), t, PathWord(j_base, tuple(j)))


def _star_factor(f: Factor) -> Factor:
    return None if f is None else (f[3], f[4], -f[2], f[0], f[1])


def _s_factor(pair: MatrixPair, i: int, j: int, n: int) -> Factor:
    """s(i,j,n) for a support arc (i,j); an out-of-range offset folds its
    excess into a trailing unitary power."""
    carry, m = divmod(n - 1, pair.a[i - 1][j - 1])
    return (i, ((i, j, m + 1),), carry, j, ())


def _unitary_factor(vertex: int, t: int) -> Factor:
    return (vertex, (), t, vertex, ())


class _Product:
    """A product s_L u^t s_J* folded one factor at a time, each factor in
    amortized time linear in its size.

    L is a list.  J is a stack whose top is its base end, so the path word
    of the next factor is matched against J by popping.  pending[k] is a
    unitary power not yet pushed into stack edge k from its base side.
    Pushes compose additively (pushing u^a, then u^b, gives the word that
    pushing u^(a+b) gives, since normal forms are unique), so a power that
    enters J waits on the top edge.  It is pushed only when that edge is
    compared, popped or emitted, and its carry then waits on the next edge.
    Exponents at a vertex whose B-row is zero are dropped at the end: every
    push out of such a vertex carries nothing.

    A fold past the letter budget is a DomainError."""

    __slots__ = ("pair", "zero", "base", "left", "t", "vertex", "stack", "pending")

    def __init__(self, pair: MatrixPair, f: Factor):
        self.pair = pair
        self.zero = f is None
        if f is not None:
            k_base, k, self.t, _, j = f
            self.base, self.left = k_base, list(k)
            self.vertex = k[-1][1] if k else k_base
            self.stack, self.pending = list(reversed(j)), [0] * len(j)

    def _pop(self) -> Edge:
        """The base edge of J with its pending power pushed into it."""
        e, p = self.stack.pop(), self.pending.pop()
        if p:
            i, j, n = e
            carry, m = divmod(n - 1 + p * self.pair.b[i - 1][j - 1], self.pair.a[i - 1][j - 1])
            e = (i, j, m + 1)
            if self.pending:
                self.pending[-1] += carry
            else:
                self.t -= carry
        return e

    def fold(self, f: Factor) -> None:
        """Multiply on the right by f."""
        if self.zero:
            return
        if f is None:
            self.zero = True
            return
        k_base, k, r, _, j = f
        stack = self.stack
        if k_base != (stack[-1][0] if stack else self.vertex):
            self.zero = True
            return
        matched = 0
        while matched < len(k) and stack:
            if self._pop() != k[matched]:
                self.zero = True
                return
            matched += 1
        if stack:  # K is a proper prefix of J: u^r waits on the rest of J
            self.pending[-1] -= r
        else:  # J is a prefix of K: push u^t across the rest of K
            t, left = self.t, self.left
            a, b = self.pair.a, self.pair.b
            while matched < len(k) and t:  # K is reduced: with t = 0 nothing moves
                i, v, n = k[matched]
                t, m = divmod(n - 1 + t * b[i - 1][v - 1], a[i - 1][v - 1])
                left.append((i, v, m + 1))
                matched += 1
            left.extend(k[matched:])
            self.t = t + r
            self.vertex = k[-1][1] if k else k_base
        if j:
            stack.extend(reversed(j))
            self.pending.extend([0] * len(j))
        if len(self.left) + len(stack) > LETTER_BUDGET:
            raise DomainError(f"the element would hold more than {LETTER_BUDGET} letters, the letter budget")

    def factor(self) -> Factor:
        """The product so far, J emptied into a reduced word."""
        if self.zero:
            return None
        stack = self.stack
        j_base = stack[-1][0] if stack else self.vertex
        j = [self._pop() for _ in range(len(stack))]
        return (self.base, self.left, self.t, j_base, j)


def _power(pair: MatrixPair, f: Factor, k: int) -> Factor:
    """f^k by repeated squaring over the bits of |k|, most significant
    first; f^0 is its source projection and a negative power is a power of
    the adjoint.  A power past the budget is refused at the first square
    that exceeds it; an idempotent's squares never grow."""
    if f is None:
        return None
    if k == 0:
        _, _, _, j_base, j = f
        return (j_base, j, 0, j_base, j)
    base = f if k > 0 else _star_factor(f)
    out = base
    for bit in bin(abs(k))[3:]:
        product = _Product(pair, out)
        product.fold(out)
        if bit == "1":
            product.fold(base)
        out = product.factor()
    return out


def multiply(pair: MatrixPair, x: ISgElement, y: ISgElement) -> ISgElement:
    """Product in normal form; zero-absorbing, and a DomainError past the
    letter budget."""
    product = _Product(pair, _factor(x))
    product.fold(_factor(y))
    return _element(pair, product.factor())


def is_idempotent(x: ISgElement) -> bool:
    return isinstance(x, Zero) or (x.exponent == 0 and x.left == x.right)
