"""One-sided infinite paths, the partial action on them, fixed points and germ
equality.

A point of the path space is an infinite sequence of in-range edges.  Finite
prefixes double as the clopen cylinders they determine.  An element s acts
on the cylinder of gamma through the product s . s_gamma, so the action is
read off that product's normal form, zero B-rows included.  Eventually
periodic points are the computable proxy for the whole space: every unique
fixed point of a non-idempotent element has this shape, so the decision
procedures lose nothing by restricting to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthCapExceeded, DomainError, StructuralError
from .invsemigroup import ZERO, ISgElement, PathWord, Triple, Zero, is_idempotent, is_prefix, push_unitary, star, triple
from .matrices import Edge, MatrixPair


@dataclass(frozen=True)
class EventuallyPeriodicPath:
    """preperiod . period . period . ...  The period is a cycle based at the
    preperiod's range vertex.  Use `eventually_periodic` to build canonical
    instances; equality is then structural."""

    preperiod: PathWord
    period: PathWord

    def unfold(self, depth: int) -> PathWord:
        edges = list(self.preperiod.edges)
        while len(edges) < depth:
            edges.extend(self.period.edges)
        return PathWord(self.preperiod.base, tuple(edges[:depth]))


def _primitive_root(edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    q = len(edges)
    for d in range(1, q + 1):  # a nonempty word matches at d = q at the latest
        if q % d == 0 and edges[:d] * (q // d) == edges:
            return edges[:d]


def eventually_periodic(pre: PathWord, per: PathWord) -> EventuallyPeriodicPath:
    """Canonical form: primitive period, maximally rotated into the preperiod."""
    if not per.edges:
        raise StructuralError("period must be nonempty")
    if per.source != per.target:
        raise StructuralError("period is not a cycle")
    if pre.target != per.source:
        raise StructuralError("period does not start at the preperiod's range vertex")
    per_edges = _primitive_root(per.edges)
    pre_edges = list(pre.edges)
    while pre_edges and pre_edges[-1] == per_edges[-1]:
        pre_edges.pop()
        per_edges = per_edges[-1:] + per_edges[:-1]
    base = pre.base
    new_pre = PathWord(base, tuple(pre_edges))
    return EventuallyPeriodicPath(new_pre, PathWord(per_edges[0][0], per_edges))


# perfbench's `act` check names the zero of the action by this alias
ActZero = Zero


def act_on_prefix(pair: MatrixPair, s: ISgElement, gamma: PathWord) -> ISgElement:
    """The product s . s_gamma in normal form, for s = s_I u^t s_J*.

    ZERO when the cylinder of gamma leaves the domain of s.  When gamma is a
    proper prefix of J = gamma J', the product s_I u^t s_J'* still carries
    an adjoint word.  Otherwise gamma = J w, u^t is pushed across w, and the
    product s_I s_w' u^r has an empty adjoint word; `triple` reads r as 0
    at a vertex whose B-row is zero."""
    if isinstance(s, Zero):
        return ZERO
    j_word = s.right
    if len(gamma) < len(j_word):
        if not is_prefix(gamma, j_word):
            return ZERO
        return Triple(s.left, s.exponent, PathWord(gamma.target, j_word.edges[len(gamma.edges):]))
    if not is_prefix(j_word, gamma):
        return ZERO
    pushed, residual = push_unitary(pair, j_word.target, s.exponent, gamma.edges[len(j_word.edges):])
    image = PathWord(s.left.base, s.left.edges + pushed)
    return triple(pair, image, residual, PathWord(image.target))


def act_on_periodic(
    pair: MatrixPair, s: ISgElement, x: EventuallyPeriodicPath, depth: int
) -> Zero | PathWord:
    """First `depth` letters of s . x, or ZERO when x is outside the domain."""
    if isinstance(s, Zero):
        return ZERO
    need = len(s.right) + max(0, depth - len(s.left))
    image = act_on_prefix(pair, s, x.unfold(need))
    if isinstance(image, Zero):
        return ZERO
    return PathWord(image.left.base, image.left.edges[:depth])


def image_point(
    pair: MatrixPair, s: ISgElement, x: EventuallyPeriodicPath, cap: int = 64
) -> Zero | EventuallyPeriodicPath:
    """s . x as an eventually periodic point, or ZERO when x is outside the
    domain.

    The residual exponent evolves deterministically per period copy; once it
    repeats, the image's period is the block of letters emitted in between.
    When A = 1 on every arc of the period, every offset is forced to 1 and
    each copy maps to itself, however the residual grows.  Otherwise raises
    DepthCapExceeded if no repetition shows up within `cap` copies (the
    image need not be eventually periodic in general).
    """
    if isinstance(s, Zero):
        return ZERO
    p, q = len(x.preperiod), len(x.period)
    start = max(p, len(s.right))
    head = act_on_prefix(pair, s, x.unfold(start))
    if isinstance(head, Zero):
        return ZERO
    offset = (start - p) % q
    loop = x.period.edges[offset:] + x.period.edges[:offset]
    vertex = loop[0][0]  # where the point stands after `start` letters
    if all(pair.a_at(i, j) == 1 for i, j, _ in loop):
        return eventually_periodic(head.left, PathWord(vertex, loop))
    seen: dict[int, int] = {}
    blocks: list[tuple[Edge, ...]] = []
    t = head.exponent
    for k in range(cap):
        if t in seen:
            first = seen[t]
            pre_edges = head.left.edges + sum(blocks[:first], ())
            per_edges = sum(blocks[first:k], ())
            return eventually_periodic(
                PathWord(head.left.base, pre_edges),
                PathWord(pre_edges[-1][1] if pre_edges else head.left.base, per_edges),
            )
        seen[t] = k
        pushed, t = push_unitary(pair, vertex, t, loop)
        blocks.append(pushed)
    raise DepthCapExceeded(f"image of the point did not stabilize within {cap} period copies")


def generate_fixed_point(
    pair: MatrixPair, s: ISgElement, depth: int
) -> PathWord | None:
    """Prefix of the unique fixed point of s, when it has one.

    When the adjoint word J of s = s_K u^t s_J* is a proper prefix of K,
    s is s_J s_c u^t s_J* for a cycle c; iterating the carry propagation
    around the cycle emits the fixed point letter by letter.  s and s* act
    by mutually inverse partial maps, so they fix the same points, and s*
    answers when K is a proper prefix of J.  None when the two path words
    are incompatible or no cycle part remains.
    """
    if isinstance(s, Zero) or is_idempotent(s):
        raise DomainError("fixed points of idempotents and zero are not unique")
    left, right = s.left, s.right
    if len(right) > len(left) and is_prefix(left, right):
        return generate_fixed_point(pair, star(s), depth)
    if len(left) <= len(right) or not is_prefix(right, left):
        return None
    cycle = left.edges[len(right.edges):]
    t = s.exponent
    out = list(right.edges)
    vertex = right.target
    block = cycle
    while len(out) < depth:
        out.extend(block)
        if len(out) < depth:
            block, t = push_unitary(pair, vertex, t, block)
    return PathWord(right.base, tuple(out[:depth]))


def germ_equal(
    pair: MatrixPair, s: ISgElement, t: ISgElement, x: EventuallyPeriodicPath
) -> str:
    """Compare the germs of s and t at x: "equal" or "not-equal".

    The germs agree iff s . e_d = t . e_d for some cylinder projection
    e_d = s_w s_w*, w the first d letters of x: those projections are
    cofinal among the idempotents whose domain holds x.  One comparison at
    depth D = max(|preperiod|, |s.right|, |t.right|) + |period| decides:

    - Equality at depth d gives equality at every deeper d', since
      e_d . e_d' = e_d'.
    - From d0 = max(|s.right|, |t.right|) on, the two products are
      s_l u^r s_w* and s_l' u^r' s_w* with the same w, and they agree iff
      l = l' and r = r'.  Each further letter appends one letter to l and
      to l', so left words that differ stay different.
    - With l = l' and r != r', the next letter (i, j, n) of x becomes
      (i, j, m) and the residual r becomes k, where
      n - 1 + r B_ij = m - 1 + k A_ij and 1 <= m <= A_ij.  When B_ij != 0,
      (m, k) recovers r, so the products still differ.  Across a B = 0 arc
      both residuals become 0 and the letter stays, so the products agree.
      (The normal form drops the residual one letter early, at a vertex
      whose B-row is zero.)
    - So the products agree by depth d0, or by one letter past the first
      B = 0 arc of x at index d0 or later, or never.  Letters from index
      max(d0, |preperiod|) on repeat the period, so that arc, if it
      exists, sits at an index below D.

    At depth D, s . e_D is (s . s_w) s_w* with s . s_w = s_l u^r from
    `act_on_prefix`, so comparing s . s_w with t . s_w compares them.
    """
    for elem in (s, t):
        if isinstance(elem, Zero):
            raise DomainError("zero carries no germ")
        if not is_prefix(elem.right, x.unfold(len(elem.right))):
            raise DomainError("point lies outside the element's domain")
    depth = max(len(x.preperiod), len(s.right), len(t.right)) + len(x.period)
    cylinder = x.unfold(depth)
    same = act_on_prefix(pair, s, cylinder) == act_on_prefix(pair, t, cylinder)
    return "equal" if same else "not-equal"

