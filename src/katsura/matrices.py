"""The input pair (A, B), its edge multigraph, and graph-theoretic conditions.

Vertices are 1-based everywhere.  An edge of the multigraph is a triple
``(i, j, n)`` with ``1 <= n <= A[i][j]``; the n-component distinguishes the
``A[i][j]`` parallel edges from i to j.  All arithmetic is exact integer
arithmetic; nothing in this package touches floating point.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress, repeat
from operator import not_
from typing import Sequence

from .errors import StructuralError

Edge = tuple[int, int, int]


class MatrixPair:
    """A size-N pair: A with nonnegative integer entries, B with integer
    entries.  Construction enforces the standing requirement (no zero row in
    A, B supported inside the support of A), so every instance is valid.
    Instances are immutable, and compare and hash by (n, a, b)."""

    # `sections`: entry i - 1 lists the out-vertices of i, read off the same scan.
    # `zero_b_rows`: the vertices whose B-row is zero; there u_i = p_i, so the
    # normal form reads every unitary exponent standing at such a vertex as 0.
    __slots__ = ("n", "a", "b", "sections", "zero_b_rows")

    def __init__(self, n: int, a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]):
        """Each rule is one scan in C; only a failed scan looks up the
        entries its message names.  The first entry that is not an integer
        fails first, then the first negative A-entry, then a message listing
        every zero A-row and every B-entry off the support."""
        if not a:
            raise StructuralError("A is empty")
        for name, m in (("A", a), ("B", b)):
            if len(m) != n or any(len(row) != n for row in m):
                raise StructuralError(f"{name} is not a square matrix of size {n}")
        # bool is an int subclass; reject it so JSON `true` cannot sneak in as 1
        if any(t is bool or not issubclass(t, int) for t in set(map(type, chain(*a, *b)))):
            x = next(x for x in chain(*a, *b) if isinstance(x, bool) or not isinstance(x, int))
            raise StructuralError(f"matrix entry {x!r} is not an integer")
        if min(map(min, a)) < 0:
            i, j, x = next(
                (i, j, x) for i, row in enumerate(a, 1) for j, x in enumerate(row, 1) if x < 0
            )
            raise StructuralError(f"A[{i}][{j}] = {x} is negative")
        columns = range(1, n + 1)
        sections = tuple(tuple(compress(columns, row)) for row in a)
        if not all(sections) or any(map(any, map(compress, b, map(map, repeat(not_), a)))):
            zero_rows = [f"row {i} of A is zero" for i, js in enumerate(sections, 1) if not js]
            off_support = [
                f"B[{i}][{j}] is nonzero but A[{i}][{j}] = 0"
                for i, (a_row, b_row) in enumerate(zip(a, b), 1)
                for j, (x, y) in enumerate(zip(a_row, b_row), 1)
                if y and not x
            ]
            raise StructuralError("invalid pair: " + "; ".join(zero_rows + off_support))
        zero_b_rows = frozenset(compress(columns, map(not_, map(any, b))))
        for name, value in zip(self.__slots__, (n, a, b, sections, zero_b_rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r}: a MatrixPair is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not MatrixPair:
            return NotImplemented
        return (self.n, self.a, self.b) == (other.n, other.a, other.b)

    def __hash__(self):
        return hash((self.n, self.a, self.b))

    def __repr__(self):
        return f"MatrixPair(n={self.n!r}, a={self.a!r}, b={self.b!r})"

    def __reduce__(self):  # copies and pickles go through the constructor
        return MatrixPair, (self.n, self.a, self.b)

    @staticmethod
    def from_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> "MatrixPair":
        return MatrixPair(len(a), tuple(map(tuple, a)), tuple(map(tuple, b)))

    def a_at(self, i: int, j: int) -> int:
        return self.a[i - 1][j - 1]

    def b_at(self, i: int, j: int) -> int:
        return self.b[i - 1][j - 1]

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def out_vertices(self, i: int) -> tuple[int, ...]:
        """The row section of the support at i."""
        return self.sections[i - 1]


def strongly_connected_components(pair: MatrixPair) -> list[tuple[int, ...]]:
    """Strongly connected components of the support digraph, each sorted,
    listed sinks first.

    Tarjan's algorithm with an explicit stack in place of recursion, so the
    depth of the digraph is not bounded by the interpreter's stack.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[tuple[int, ...]] = []
    succ = pair.sections
    for root in pair.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root - 1]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w - 1])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(members)))
    return components


# The graph conditions on a pair, read off its row sections and one
# strongly-connected-components pass:
#   condition_e        B[i][j] != 0 wherever A[i][j] >= 1
#   condition_l        every cycle of the edge graph has an exit
#   condition_k        every vertex on a cycle is the base of two distinct cycles
#   irreducible        a positive-length path joins every ordered pair of vertices
#   cyclic_components  strongly connected components with an internal arc
#   components         sinks first: an arc leads to its own or an earlier one
GraphFacts = namedtuple("GraphFacts", "condition_e condition_l condition_k irreducible cyclic_components components")


def graph_facts(pair: MatrixPair) -> GraphFacts:
    """Compute the graph conditions of the pair together.

    A component is cyclic when it has an internal arc; every other
    component is one vertex on no cycle.  Call a cyclic component bare when
    every member has exactly one out-arc inside it, carrying A-entry 1.  A
    vertex on a cycle bases exactly one first-return path iff its component
    is bare, so condition K fails exactly on a bare component.  An
    exit-free cycle is a cycle whose vertices each emit one edge; nothing
    leaves it, so it is a whole component, and condition L fails exactly on
    a bare component with no arc leaving it.  Irreducibility is a single
    component (a valid pair has no zero row, so it has a cycle through
    every vertex).
    """
    succ = pair.sections
    components = strongly_connected_components(pair)
    component = [0] * (pair.n + 1)
    for c, members in enumerate(components):
        for v in members:
            component[v] = c
    condition_l = condition_k = True
    cyclic = 0
    for c, members in enumerate(components):
        inner = [[j for j in succ[v - 1] if component[j] == c] for v in members]
        if not any(inner):
            continue
        cyclic += 1
        if all(len(js) == 1 and pair.a[v - 1][js[0] - 1] == 1 for v, js in zip(members, inner)):
            condition_k = False
            if all(len(succ[v - 1]) == 1 for v in members):
                condition_l = False
    return GraphFacts(
        condition_e=all(b_row[j - 1] != 0 for b_row, js in zip(pair.b, succ) for j in js),
        condition_l=condition_l,
        condition_k=condition_k,
        irreducible=len(components) == 1,
        cyclic_components=cyclic,
        components=tuple(components),
    )
