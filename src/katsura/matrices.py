"""The input pair (A, B), its edge multigraph, and graph-theoretic conditions.

Vertices are 1-based everywhere.  An edge of the multigraph is a triple
``(i, j, n)`` with ``1 <= n <= A[i][j]``; the n-component distinguishes the
``A[i][j]`` parallel edges from i to j.  All arithmetic is exact integer
arithmetic; nothing in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from operator import not_
from typing import Sequence

from .errors import StructuralError

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class MatrixPair:
    """A size-N pair: A with nonnegative integer entries, B with integer
    entries.  Construction enforces the standing requirement (no zero row in
    A, B supported inside the support of A), so every instance is valid."""

    n: int
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    # entry i - 1 lists the out-vertices of i, read off the same scan
    sections: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.a:
            raise StructuralError("A is empty")
        for name, m in (("A", self.a), ("B", self.b)):
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise StructuralError(f"{name} is not a square matrix of size {self.n}")
        a, b = self.a, self.b
        # one scan in C for the common case, a valid pair of plain ints; any
        # other input takes the loop below, which names the first problem
        if (
            set(map(type, chain(*a, *b))) <= {int}
            and min(map(min, a)) >= 0
            and all(map(any, a))  # no zero row
            and not any(any(compress(b_row, map(not_, a_row))) for a_row, b_row in zip(a, b))
        ):
            columns = range(1, len(a) + 1)
            sections = tuple(tuple(compress(columns, row)) for row in a)
        else:
            sections = self._checked_sections()
        object.__setattr__(self, "sections", sections)

    def _checked_sections(self) -> tuple[tuple[int, ...], ...]:
        """The row sections, checked entry by entry.  Raises StructuralError
        for the first entry that is not an integer, else for the first
        negative A-entry, else listing every zero row and every B-entry off
        the support."""
        for x in chain(*self.a, *self.b):
            # bool is an int subclass; reject it so JSON `true` cannot sneak in as 1
            if isinstance(x, bool) or not isinstance(x, int):
                raise StructuralError(f"matrix entry {x!r} is not an integer")
        sections = []
        zero_rows = []
        off_support = []
        for i, (a_row, b_row) in enumerate(zip(self.a, self.b), 1):
            section = []
            for j, (x, y) in enumerate(zip(a_row, b_row), 1):
                if x < 0:
                    raise StructuralError(f"A[{i}][{j}] = {x} is negative")
                if x:
                    section.append(j)
                elif y:
                    off_support.append(f"B[{i}][{j}] is nonzero but A[{i}][{j}] = 0")
            if not section:
                zero_rows.append(f"row {i} of A is zero")
            sections.append(tuple(section))
        if zero_rows or off_support:
            raise StructuralError("invalid pair: " + "; ".join(zero_rows + off_support))
        return tuple(sections)

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

    def has_edge(self, edge: Edge) -> bool:
        i, j, n = edge
        return (
            1 <= i <= self.n
            and 1 <= j <= self.n
            and 1 <= n <= self.a_at(i, j)
        )

    def b_row_is_zero(self, i: int) -> bool:
        return all(x == 0 for x in self.b[i - 1])


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


@dataclass(frozen=True)
class GraphFacts:
    """The graph conditions on a pair, read off its row sections and one
    strongly-connected-components pass."""

    condition_e: bool  # B[i][j] != 0 wherever A[i][j] >= 1
    condition_l: bool  # every cycle of the edge graph has an exit
    condition_k: bool  # every vertex on a cycle is the base of two distinct cycles
    irreducible: bool  # a positive-length path joins every ordered pair of vertices
    paths_extend: bool  # whenever j is reachable from i, i is reachable from j


def graph_facts(pair: MatrixPair) -> GraphFacts:
    """Compute the graph conditions of the pair together.

    Call a component bare when it has internal arcs and every member has
    exactly one out-arc inside it, carrying A-entry 1.  A vertex on a cycle
    bases exactly one first-return path iff its component is bare, so
    condition K fails exactly on a bare component.  An exit-free cycle is a
    cycle whose vertices each emit one edge; nothing leaves it, so it is a
    whole component, and condition L fails exactly on a bare component with
    no arc leaving it.  Irreducibility is a single component (a valid pair
    has no zero row, so it has a cycle through every vertex), and paths
    extend to cycles iff no support arc leaves its component.
    """
    succ = pair.sections
    components = strongly_connected_components(pair)
    component = [0] * (pair.n + 1)
    for c, members in enumerate(components):
        for v in members:
            component[v] = c
    condition_l = condition_k = True
    for c, members in enumerate(components):
        inner = [[j for j in succ[v - 1] if component[j] == c] for v in members]
        if any(inner) and all(
            len(js) == 1 and pair.a[v - 1][js[0] - 1] == 1 for v, js in zip(members, inner)
        ):
            condition_k = False
            if all(len(succ[v - 1]) == 1 for v in members):
                condition_l = False
    return GraphFacts(
        condition_e=all(b_row[j - 1] != 0 for b_row, js in zip(pair.b, succ) for j in js),
        condition_l=condition_l,
        condition_k=condition_k,
        irreducible=len(components) == 1,
        paths_extend=all(
            component[i] == component[j] for i, js in enumerate(succ, 1) for j in js
        ),
    )
