"""One-sided infinite paths, the partial action on them, and germ arithmetic.

A point of the path space is an infinite sequence of in-range edges.  Finite
prefixes double as the clopen cylinders they determine.  Eventually periodic
points are the computable proxy for the whole space: every unique fixed
point of a non-idempotent element has this shape, so the decision procedures
lose nothing by restricting to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthCapExceeded, DomainError, StructuralError
from .invsemigroup import (
    ISgElement,
    PathWord,
    Triple,
    Zero,
    check_path_word,
    is_idempotent,
    is_prefix,
    multiply,
    push_unitary,
    star,
    triple,
)
from .matrices import Edge, MatrixPair

FinitePath = PathWord


@dataclass(frozen=True)
class EventuallyPeriodicPath:
    """preperiod . period . period . ...  The period is a cycle based at the
    preperiod's range vertex.  Use `eventually_periodic` to build canonical
    instances; equality is then structural."""

    preperiod: PathWord
    period: PathWord

    @property
    def source(self) -> int:
        return self.preperiod.source

    def unfold(self, depth: int) -> PathWord:
        edges = list(self.preperiod.edges)
        while len(edges) < depth:
            edges.extend(self.period.edges)
        return PathWord(self.preperiod.base, tuple(edges[:depth]))

    def phase_vertex(self, depth: int) -> int:
        """Vertex reached after `depth` letters."""
        p, q = len(self.preperiod), len(self.period)
        if depth <= p:
            return self.unfold(depth).target
        k = (depth - p) % q
        return self.period.target if k == 0 else self.period.edges[k - 1][1]


def _primitive_root(edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    q = len(edges)
    for d in range(1, q + 1):
        if q % d == 0 and edges[:d] * (q // d) == edges:
            return edges[:d]
    return edges


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


def periodic_point(pair: MatrixPair, pre: PathWord, per: PathWord) -> EventuallyPeriodicPath:
    check_path_word(pair, pre)
    check_path_word(pair, per)
    return eventually_periodic(pre, per)


@dataclass(frozen=True)
class ActZero:
    """The element annihilates every point of the cylinder."""


@dataclass(frozen=True)
class NeedLongerPrefix:
    """The prefix is too short to decide; extend it past the adjoint word."""


@dataclass(frozen=True)
class ActResult:
    prefix: FinitePath
    residual: int  # unitary exponent still to be pushed through any further letters


ACT_ZERO = ActZero()
NEED_LONGER_PREFIX = NeedLongerPrefix()

ActOutcome = ActZero | NeedLongerPrefix | ActResult


def act_on_prefix(pair: MatrixPair, s: ISgElement, gamma: FinitePath) -> ActOutcome:
    """Apply s to a cylinder: strips s's adjoint word, prepends its path word,
    and pushes its unitary exponent through the remaining letters."""
    if isinstance(s, Zero):
        return ACT_ZERO
    j_word = s.right
    if len(gamma) < len(j_word):
        return NEED_LONGER_PREFIX if is_prefix(gamma, j_word) else ACT_ZERO
    if not is_prefix(j_word, gamma):
        return ACT_ZERO
    rest = gamma.edges[len(j_word.edges):]
    pushed, residual = push_unitary(pair, j_word.target, s.exponent, rest)
    return ActResult(PathWord(s.left.base, s.left.edges + pushed), residual)


def act_on_periodic(
    pair: MatrixPair, s: ISgElement, x: EventuallyPeriodicPath, depth: int
) -> ActZero | FinitePath:
    """First `depth` letters of s . x, or ActZero when x is outside the domain."""
    if isinstance(s, Zero):
        return ACT_ZERO
    need = len(s.right) + max(0, depth - len(s.left))
    outcome = act_on_prefix(pair, s, x.unfold(need))
    if isinstance(outcome, ActZero):
        return ACT_ZERO
    assert isinstance(outcome, ActResult)
    p = outcome.prefix
    return PathWord(p.base, p.edges[:depth])


def image_point(
    pair: MatrixPair, s: ISgElement, x: EventuallyPeriodicPath, cap: int = 64
) -> ActZero | EventuallyPeriodicPath:
    """s . x as an eventually periodic point.

    The residual exponent evolves deterministically per period copy; once it
    repeats, the image's period is the block of letters emitted in between.
    When A = 1 on every arc of the period, every offset is forced to 1 and
    each copy maps to itself, however the residual grows.  Otherwise raises
    DepthCapExceeded if no repetition shows up within `cap` copies (the
    image need not be eventually periodic in general).
    """
    if isinstance(s, Zero):
        return ACT_ZERO
    p, q = len(x.preperiod), len(x.period)
    start = max(p, len(s.right))
    head = act_on_prefix(pair, s, x.unfold(start))
    if isinstance(head, ActZero):
        return ACT_ZERO
    assert isinstance(head, ActResult)
    offset = (start - p) % q
    loop = x.period.edges[offset:] + x.period.edges[:offset]
    vertex = x.phase_vertex(start)
    if all(pair.a_at(i, j) == 1 for i, j, _ in loop):
        return eventually_periodic(head.prefix, PathWord(vertex, loop))
    seen: dict[int, int] = {}
    blocks: list[tuple[Edge, ...]] = []
    t = head.residual
    for k in range(cap):
        if t in seen:
            first = seen[t]
            pre_edges = head.prefix.edges + sum(blocks[:first], ())
            per_edges = sum(blocks[first:k], ())
            return eventually_periodic(
                PathWord(head.prefix.base, pre_edges),
                PathWord(pre_edges[-1][1] if pre_edges else head.prefix.base, per_edges),
            )
        seen[t] = k
        pushed, t = push_unitary(pair, vertex, t, loop)
        blocks.append(pushed)
    raise DepthCapExceeded(f"image of the point did not stabilize within {cap} period copies")


def generate_fixed_point(
    pair: MatrixPair, s: ISgElement, depth: int
) -> FinitePath | None:
    """Prefix of the unique fixed point of s, when it has one.

    s reduces to a cycle-with-exponent by cancelling the shorter of its two
    path words; iterating the carry propagation around the cycle emits the
    fixed point letter by letter.  None when the two path words are
    incompatible or no cycle part remains.
    """
    if isinstance(s, Zero) or is_idempotent(s):
        raise DomainError("fixed points of idempotents and zero are not unique")
    left, right = s.left, s.right
    if is_prefix(right, left) and len(left) > len(right):
        cycle = left.edges[len(right.edges):]
        t = s.exponent
    elif is_prefix(left, right) and len(right) > len(left):
        rest = right.edges[len(left.edges):]
        cycle, t = push_unitary(pair, left.target, -s.exponent, rest)
    else:
        return None  # adjoint and path word collide, or a pure unitary power
    out = list(right.edges)
    vertex = right.target
    block = cycle
    while len(out) < depth:
        out.extend(block)
        block, t = push_unitary(pair, vertex, t, block)
    return PathWord(right.base, tuple(out[:depth]))


def is_fixed_by_unitary(
    pair: MatrixPair, vertex: int, exponent: int, x: EventuallyPeriodicPath
) -> bool:
    """Whether the vertex unitary's power fixes the point: every term of the
    integrality trace K_0 = exponent, K_j = K_(j-1) * B/A along the j-th
    letter of x must be an integer.

    One pass over preperiod plus period suffices: once K hits zero it stays
    zero, and otherwise the per-prime valuations evolve linearly with the
    period ratio, so integrality forever is equivalent to integrality over
    the first pass together with the period ratio being an integer.
    """
    if x.source != vertex:
        raise StructuralError(f"point starts at {x.source}, not {vertex}")
    if exponent == 0:
        return True
    k = Fraction(exponent)
    period_ratio = Fraction(1)
    for step, (i, j, _) in enumerate(x.preperiod.edges + x.period.edges):
        r = pair.ratio(i, j)
        k *= r
        if k.denominator != 1:
            return False
        if k == 0:
            return True
        if step >= len(x.preperiod):
            period_ratio *= r
    return period_ratio.denominator == 1


def _cylinder_projection(pair: MatrixPair, prefix: PathWord) -> Triple:
    return triple(pair, prefix, 0, prefix)


def germ_equal(
    pair: MatrixPair,
    s: ISgElement,
    t: ISgElement,
    x: EventuallyPeriodicPath,
    depth_cap: int = 32,
) -> str:
    """Compare the germs of s and t at x: "equal", "not-equal" or "unknown".

    Germ equality holds iff s and t agree after cutting down by some
    cylinder projection around x, and those projections are cofinal among
    idempotents whose domain contains x, so scanning depths 0..cap is
    exhaustive up to the cap.  Distinct image prefixes, mismatched growth,
    or a repeating residual state certify inequality.
    """
    if isinstance(s, Zero) or isinstance(t, Zero):
        raise DomainError("germs are carried by nonzero elements")
    for elem in (s, t):
        if not is_prefix(elem.right, x.unfold(len(elem.right))):
            raise DomainError("point lies outside the element's domain")
    p, q = len(x.preperiod), len(x.period)
    seen: set[tuple[int, int, int]] = set()
    for depth in range(depth_cap + 1):
        e = _cylinder_projection(pair, x.unfold(depth))
        xs = multiply(pair, s, e)
        xt = multiply(pair, t, e)
        assert isinstance(xs, Triple) and isinstance(xt, Triple)
        if xs == xt:
            return "equal"
        if len(xs.left) != len(xt.left):
            if len(s.left) - len(s.right) != len(t.left) - len(t.right):
                return "not-equal"  # lengths diverge forever
            continue  # still inside the adjoint words; lengths will align
        if xs.left != xt.left:
            return "not-equal"  # images differ as points
        if depth >= max(p, len(s.right), len(t.right)):
            state = ((depth - p) % q, xs.exponent, xt.exponent)
            if state in seen:
                return "not-equal"  # residuals cycle without meeting
            seen.add(state)
    return "unknown"


@dataclass(frozen=True)
class Germ:
    """An element germinating at an eventually periodic point of its domain."""

    element: Triple
    point: EventuallyPeriodicPath


def germ(pair: MatrixPair, s: ISgElement, x: EventuallyPeriodicPath) -> Germ:
    if isinstance(s, Zero):
        raise DomainError("zero carries no germ")
    if not is_prefix(s.right, x.unfold(len(s.right))):
        raise DomainError("point lies outside the element's domain")
    return Germ(s, x)


def germ_range(pair: MatrixPair, gm: Germ, cap: int = 64) -> EventuallyPeriodicPath:
    image = image_point(pair, gm.element, gm.point, cap)
    assert isinstance(image, EventuallyPeriodicPath)
    return image


def germ_inverse(pair: MatrixPair, gm: Germ, cap: int = 64) -> Germ:
    return germ(pair, star(gm.element), germ_range(pair, gm, cap))


def germ_compose(pair: MatrixPair, g1: Germ, g2: Germ, cap: int = 64) -> Germ:
    """[s, x] . [t, y] = [st, y], defined when x = t . y."""
    image = germ_range(pair, g2, cap)
    if image != g1.point:
        raise DomainError("germs do not compose: range of the second != source of the first")
    product = multiply(pair, g1.element, g2.element)
    assert isinstance(product, Triple)
    return germ(pair, product, g2.point)
