"""Reference implementations the tests compare the library against.

Nothing here runs in a command or a verdict.  Each function answers, by a
second and usually slower route, a question the library decides another
way: cycle enumeration for the graph conditions, the classical sufficient
conditions for simplicity, a brute force over vertex subsets for
minimality, path counts in powers of A for local contractiveness, a
transient vertex added upstream for the verdicts that must not see it,
a plain matrix product for Smith witnesses, the Smith diagonal and a
rank and determinant modulo a prime for the witness-free diagonal form,
the integrality trace K_j = l . prod B/A term by term, a capped search of
the trace's state graph for cylinders of fixed points, a backward search
per prime, found by trial division, for the escape that
`fixed_point_escape` reads off the components over a coprime basis, and
the product of two partial isometries taken whole, the oracle of the
factor-by-factor fold behind `multiply` and `parse_isg`.  A
scan of cylinder depths up to a cap is the oracle of the one-depth
`germ_equal`.  Divisibility in the semigroupoid, which the library never
decides, is found by building the one candidate quotient and checking it
through `compose`; the lcm tests rest on it.  The generators s(i,j,n),
u(v)^t and q(v) are built here from the normal form directly, as
references for the parser, and `cokernel` reads a dense matrix's cokernel
off the witness-free diagonal form.  The element oracles take only the
types from `invsemigroup`: they fold offsets with their own carry loop,
read a zero B-row off B, and compare prefixes by slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from katsura.decisions import Reason, Verdict
from katsura.errors import DomainError, StructuralError, format_int
from katsura.invsemigroup import ZERO, ISgElement, PathWord, Triple, Zero
from katsura.ktheory import AbelianGroup, abelian_group, diagonal_form, smith_normal_form
from katsura.matrices import Edge, MatrixPair, graph_facts
from katsura.pathspace import EventuallyPeriodicPath
from katsura.semigroupoid import GWord, HPower, SgpElement, compose, target

Matrix = list[list[int]]


def _triple(pair: MatrixPair, left: PathWord, exponent: int, right: PathWord) -> Triple:
    """The normal form: at a vertex whose B-row is zero the unitary is its
    range projection, so the power there is 0."""
    return Triple(left, exponent if any(pair.b[left.target - 1]) else 0, right)


def _push(pair: MatrixPair, exponent: int, edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], int]:
    """u^exponent . s_edges = s_edges' . u^carry: along each edge the offset
    shifts by exponent * B, folds back into [1, A], and the fold count
    carries to the next edge."""
    out = []
    for i, j, n in edges:
        exponent, m = divmod(n - 1 + exponent * pair.b[i - 1][j - 1], pair.a[i - 1][j - 1])
        out.append((i, j, m + 1))
    return tuple(out), exponent


def _starts(p: PathWord, q: PathWord) -> bool:
    """p a left factor of q, base vertices included."""
    return p.base == q.base and q.edges[: len(p.edges)] == p.edges


def generator_s(pair: MatrixPair, i: int, j: int, n: int) -> Triple:
    """The partial isometry s(i,j,n) of a support arc; an out-of-range
    offset folds its excess into a trailing unitary power."""
    carry, m = divmod(n - 1, pair.a[i - 1][j - 1])
    return _triple(pair, PathWord(i, ((i, j, m + 1),)), carry, PathWord(j))


def unitary(pair: MatrixPair, vertex: int, exponent: int = 1) -> Triple:
    return _triple(pair, PathWord(vertex), exponent, PathWord(vertex))


def projection_q(pair: MatrixPair, vertex: int) -> Triple:
    return unitary(pair, vertex, 0)


def pairwise_multiply(pair: MatrixPair, x: ISgElement, y: ISgElement) -> ISgElement:
    """x.y in normal form from the two whole elements: the adjoint word of x
    and the path word of y must be prefix-comparable, and the unitary power
    between them is pushed across the longer one's remainder."""
    if isinstance(x, Zero) or isinstance(y, Zero):
        return ZERO
    if _starts(x.right, y.left):
        pushed, carry = _push(pair, x.exponent, y.left.edges[len(x.right.edges) :])
        return _triple(pair, PathWord(x.left.base, x.left.edges + pushed), carry + y.exponent, y.right)
    if _starts(y.left, x.right):
        pushed, carry = _push(pair, -y.exponent, x.right.edges[len(y.left.edges) :])
        return _triple(pair, x.left, x.exponent - carry, PathWord(y.right.base, y.right.edges + pushed))
    return ZERO


def witness_quotient(pair: MatrixPair, f: SgpElement, m: SgpElement) -> SgpElement | None:
    """The only possible e with compose(f, e) == m (right factors are unique
    by left cancellation), or None when the shapes already rule one out."""
    if isinstance(m, HPower):
        if isinstance(f, HPower) and f.vertex == m.vertex and f.exponent < m.exponent:
            return HPower(f.vertex, m.exponent - f.exponent)
        return None
    medges = m.edges
    if isinstance(f, HPower):
        i, j, n = medges[0]
        if f.vertex != i:
            return None
        return GWord(((i, j, n - f.exponent * pair.b_at(i, j)),) + medges[1:])
    k = len(f)
    if k > len(medges):
        return None
    i, j, nf = f.edges[-1]
    a = pair.a_at(i, j)
    gap = medges[k - 1][2] - nf
    if gap % a:
        return None
    t = gap // a
    if k == len(medges):
        return HPower(target(f), t) if t >= 1 else None
    # reducing f's final offset carries -t into the next offset's B-shift
    i2, j2, n2 = medges[k]
    return GWord(((i2, j2, n2 + t * pair.b_at(i2, j2)),) + medges[k + 1 :])


def divides_by_witness(pair: MatrixPair, f: SgpElement, m: SgpElement) -> bool:
    """Whether f divides m in the semigroupoid (f = m, or m = f . e for some
    e): derive the candidate quotient and verify it through compose."""
    if f == m:
        return True
    e = witness_quotient(pair, f, m)
    return e is not None and compose(pair, f, e) == m


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    rows, inner, cols = len(x), len(y), len(y[0])
    return [
        [sum(x[i][k] * y[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def cokernel(m: Matrix) -> AbelianGroup:
    """Z^rows / M Z^columns of a dense matrix, from its witness-free
    diagonal form."""
    return abelian_group(*diagonal_form([dict(enumerate(row)) for row in m]))


def smith_group(m: Matrix) -> AbelianGroup:
    """The cokernel of a matrix, read off its witness-carrying Smith form:
    free rank rows - rank, the rank being the count of nonzero diagonal
    entries, and torsion the entries above 1, a divisor chain."""
    diagonal = smith_normal_form(m).diagonal()
    return AbelianGroup(len(m) - sum(map(bool, diagonal)), tuple(d for d in diagonal if d > 1))


def rank_det_mod(rows: list[dict[int, int]], p: int) -> tuple[int, int]:
    """Rank and determinant modulo the prime p of a square matrix given as
    sparse rows, by Gaussian elimination over GF(p), column by column, each
    column pivoting on the shortest row that holds it.  The determinant is
    taken up to sign."""
    rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    rank, det = 0, 1
    for c in range(len(rows)):
        column = holders.pop(c, set())
        if not column:
            det = 0
            continue
        r = min(column, key=lambda i: (len(rows[i]), i))
        pivot = rows[r]
        inverse = pow(pivot[c], -1, p)
        for j in pivot:
            if j != c:
                holders[j].discard(r)
        for i in column - {r}:
            row = rows[i]
            f = row.pop(c) * inverse % p
            for j, x in pivot.items():
                if j == c:
                    continue
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                    holders[j].add(i)
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
        rank += 1
        det = det * pivot[c] % p
    return rank, det


def _reachable_from(pair: MatrixPair, start: int) -> set[int]:
    """Vertices reachable from `start` by paths of length >= 1 over the support."""
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in pair.out_vertices(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def simple_vertex_cycles(pair: MatrixPair, max_len: int | None = None) -> list[tuple[int, ...]]:
    """Vertex-simple cycles of the support digraph as vertex tuples, one per
    rotation class, rooted at their minimal vertex.

    Depth-first over paths with an explicit stack, one successor iterator
    per path vertex, so a long cycle does not hit the recursion limit."""
    cap = pair.n if max_len is None else min(max_len, pair.n)
    succ = pair.sections
    out: list[tuple[int, ...]] = []
    for root in pair.vertices:
        path = [root]
        on_path = {root}
        work = [iter(succ[root - 1])]
        while work:
            for w in work[-1]:
                if w == root:
                    out.append(tuple(path))
                elif w > root and w not in on_path and len(path) < cap:
                    path.append(w)
                    on_path.add(w)
                    work.append(iter(succ[w - 1]))
                    break
            else:
                work.pop()
                on_path.discard(path.pop())
    return out


def enumerate_simple_cycles(pair: MatrixPair, max_len: int) -> list[tuple[Edge, ...]]:
    """All vertex-simple edge cycles of length <= max_len, each listed once,
    rotated to start at its minimal vertex (the lexicographically least
    rotation of the edge sequence)."""
    if max_len < 1:
        raise StructuralError("max_len must be >= 1")
    cycles: list[tuple[Edge, ...]] = []
    for verts in simple_vertex_cycles(pair, max_len):
        arcs = [(verts[t], verts[(t + 1) % len(verts)]) for t in range(len(verts))]
        choices: list[tuple[Edge, ...]] = [()]
        for i, j in arcs:
            choices = [
                prefix + ((i, j, n),)
                for prefix in choices
                for n in range(1, pair.a_at(i, j) + 1)
            ]
        cycles.extend(choices)
    cycles.sort()
    return cycles


@dataclass(frozen=True)
class Cycle:
    """A closed edge path: consecutive endpoints match and it returns to its start."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.edges:
            raise StructuralError("a cycle has at least one edge")
        for (_, j, _), (i2, _, _) in zip(self.edges, self.edges[1:]):
            if j != i2:
                raise StructuralError("cycle edges do not chain")
        if self.edges[-1][1] != self.edges[0][0]:
            raise StructuralError("cycle is not closed")

    def vertex_set(self) -> set[int]:
        return {i for (i, _, _) in self.edges}


def is_transitory(pair: MatrixPair, cycle: Cycle) -> bool:
    """True iff no exit edge of the cycle starts a path returning to the cycle."""
    for e in cycle.edges:
        i, j, n = e
        if not (1 <= i <= pair.n and 1 <= j <= pair.n and 1 <= n <= pair.a_at(i, j)):
            raise StructuralError(f"edge {e} is not an edge of the pair's graph")
    on_cycle = cycle.vertex_set()
    cycle_edges = set(cycle.edges)
    for u in sorted(on_cycle):
        for w in pair.out_vertices(u):
            for n in range(1, pair.a_at(u, w) + 1):
                if (u, w, n) in cycle_edges:
                    continue
                if w in on_cycle or _reachable_from(pair, w) & on_cycle:
                    return False
    return True


def has_proper_hereditary_saturated_set(pair: MatrixPair) -> bool:
    """Brute force over all vertex subsets: is there a nonempty proper H
    that is hereditary (every arc out of H stays in H) and saturated (a
    vertex whose arcs all enter H lies in H)?  The action is minimal iff
    there is none."""
    n = pair.n
    succ = [[j for j in range(n) if pair.a[i][j]] for i in range(n)]
    for mask in range(1, (1 << n) - 1):
        inside = [mask >> v & 1 for v in range(n)]
        hereditary = all(inside[w] for v in range(n) if inside[v] for w in succ[v])
        saturated = all(inside[v] for v in range(n) if all(inside[w] for w in succ[v]))
        if hereditary and saturated:
            return True
    return False


def _matrix_powers(a: Matrix, top: int) -> list[Matrix]:
    """A^0, A^1, ..., A^top: entry (u, v) of A^k counts the paths of length
    k from u to v."""
    n = len(a)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(top):
        powers.append(mat_mul(powers[-1], a))
    return powers


def contraction_by_path_counts(pair: MatrixPair) -> bool | None:
    """Local contractiveness from path counts alone, sharing no code with
    `graph_facts`.

    False when some vertex starts exactly one path of length 2N: every
    vertex on it emits one edge, so it closes into an exit-free cycle whose
    points are isolated.  True when every vertex reaches a vertex u on a
    closed walk c of some length l <= N with at least two paths of length l
    from u: then Z(u) holds Z(c) properly, and s_c maps Z(u) onto it, so
    every cylinder holds one that a bisection maps properly into itself.
    None when neither holds, which the theory rules out."""
    n = pair.n
    powers = _matrix_powers([list(row) for row in pair.a], 2 * n)
    if any(sum(row) == 1 for row in powers[2 * n]):
        return False
    contracting = [
        u for u in range(n) if any(powers[k][u][u] and sum(powers[k][u]) >= 2 for k in range(1, n + 1))
    ]
    if all(any(powers[k][v][u] for k in range(n) for u in contracting) for v in range(n)):
        return True
    return None


def add_transient_vertex(rng, pair: MatrixPair) -> MatrixPair:
    """The pair with one more vertex, at a random position, that has arcs
    into the old vertices and none coming in.  B is nonzero on the new
    arcs, so condition E is kept; the old unit is a full projection, so
    the algebras are stably isomorphic."""
    n = pair.n
    a = [list(row) + [0] for row in pair.a]
    b = [list(row) + [0] for row in pair.b]
    targets = rng.sample(range(n), rng.randint(1, n))
    a.append([rng.randint(1, 3) if j in targets else 0 for j in range(n + 1)])
    b.append([rng.choice((-2, -1, 1, 2)) if j in targets else 0 for j in range(n + 1)])
    order = list(range(n))
    order.insert(rng.randint(0, n), n)
    return MatrixPair.from_rows(
        [[a[i][j] for j in order] for i in order], [[b[i][j] for j in order] for i in order]
    )


def katsura_classic_check(pair: MatrixPair) -> Verdict:
    """The classical sufficient conditions: A irreducible with A[i][i] >= 2
    and B[i][i] = 1 everywhere."""
    problems = []
    if not graph_facts(pair).irreducible:
        problems.append(Reason("not-irreducible", "A is not irreducible"))
    for i in pair.vertices:
        if pair.a_at(i, i) < 2:
            problems.append(Reason("diagonal-A", f"A[{i}][{i}] = {pair.a_at(i, i)} < 2"))
        if pair.b_at(i, i) != 1:
            problems.append(Reason("diagonal-B", f"B[{i}][{i}] = {pair.b_at(i, i)} != 1"))
    if problems:
        return Verdict("no", tuple(problems))
    return Verdict(
        "yes", (Reason("classic-conditions", "A irreducible, A[i][i] >= 2 and B[i][i] = 1 for all i"),)
    )


def _prime_exponents(x: int) -> dict[int, int]:
    """The primes of |x| > 0 with their exponents, by trial division."""
    x, out, p = abs(x), {}, 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def escape_by_predecessor_search(pair: MatrixPair) -> Verdict:
    """The fixed-point escape with its own reachability and its own primes:
    the oracle of `fixed_point_escape`, which reads the components of
    `graph_facts` and splits the entries into a coprime basis.

    u(w)^l fixes a path from w iff its integrality trace l * prod B/A stays
    integral along the path.  A zero B-entry on a support arc (i, j) zeroes
    the trace, so u(i) fixes the cylinder [(i,j,1)].  Otherwise, for each
    prime p of the nonzero A- and B-entries, the exponent of p in the trace
    moves by v_p(B[i][j]) - v_p(A[i][j]) along arc (i, j).  A vertex that
    reaches a closed walk of negative p-weight escapes: pumping that walk
    drives any integer trace to a fraction.  A vertex w that reaches no
    such walk for any p has finite least walk weights d_p(w) <= 0, and
    u(w)^l with l = prod p^(-d_p(w)) fixes every path from w.  Bellman-Ford
    from all vertices at once gives d_p; an arc that still relaxes after N
    rounds starts at a vertex that reaches a negative closed walk, and so
    does every vertex that reaches it, found by a backward search over a
    predecessor map for each p.

    The library's coprime basis gives the same answer: each prime p divides
    exactly one basis element q, and p's arc weights are v_p(q) times q's,
    so prod p^(-d_p(w)) = prod q^(-d_q(w)).
    """
    arcs = [(i, j) for i, js in enumerate(pair.sections, 1) for j in js]
    for i, j in arcs:
        if pair.b_at(i, j) == 0:
            text = f"u({i})^1 fixes the cylinder [({i},{j},1)]: B[{i}][{j}] = 0 zeroes the trace"
            return Verdict("no", (Reason("fixed-cylinder", text),))
    preds: dict[int, list[int]] = {v: [] for v in pair.vertices}
    for i, j in arcs:
        preds[j].append(i)
    in_a = {(i, j): _prime_exponents(pair.a_at(i, j)) for i, j in arcs}
    in_b = {(i, j): _prime_exponents(pair.b_at(i, j)) for i, j in arcs}
    escaping: set[int] = set()
    least: list[tuple[int, dict[int, int]]] = []
    for p in set().union(*in_a.values(), *in_b.values()):
        weighted = [(i, j, in_b[i, j].get(p, 0) - in_a[i, j].get(p, 0)) for i, j in arcs]
        d = dict.fromkeys(pair.vertices, 0)
        for _ in range(pair.n):
            changed = False
            for i, j, w in weighted:
                if d[j] + w < d[i]:
                    d[i] = d[j] + w
                    changed = True
            if not changed:
                break
        frontier = [i for i, j, w in weighted if d[j] + w < d[i]]
        draining = set(frontier)
        while frontier:
            for u in preds[frontier.pop()]:
                if u not in draining:
                    draining.add(u)
                    frontier.append(u)
        escaping |= draining
        least.append((p, d))
    stuck = [v for v in pair.vertices if v not in escaping]
    if not stuck:
        text = (
            "every vertex reaches a closed walk along which some coprime factor's"
            " exponent in the product B/A is negative"
        )
        return Verdict("yes", (Reason("valuation-escape", text),))
    w = stuck[0]
    l = 1
    for p, d in least:
        l *= p ** -d[w]
    text = f"u({w})^{format_int(l)} fixes the whole cylinder of vertex {w}"
    return Verdict("no", (Reason("fixed-cylinder", text),))


def integrality_trace(
    pair: MatrixPair, exponent: int, edges: tuple[Edge, ...]
) -> list[Fraction]:
    """The sequence K_1..K_len(edges) with K_0 = exponent and
    K_j = K_{j-1} * B/A along each edge."""
    k = Fraction(exponent)
    out = []
    for i, j, _ in edges:
        k = k * Fraction(pair.b_at(i, j), pair.a_at(i, j))
        out.append(k)
    return out


@dataclass(frozen=True)
class FixedCylinderResult:
    value: str  # "yes" | "no" | "unknown"
    witness: PathWord | None = None


def _vertex_divisibility_certificate(pair: MatrixPair) -> dict[int, bool]:
    """Per vertex: does every arc in its forward-reachable part satisfy A | B?
    If so, any integer trace value stays integral along every continuation."""
    good_arc = {
        (i, j): pair.b_at(i, j) % pair.a_at(i, j) == 0
        for i in pair.vertices
        for j in pair.out_vertices(i)
    }
    cert = {}
    for v in pair.vertices:
        seen = {v}
        stack = [v]
        ok = True
        while stack and ok:
            u = stack.pop()
            for w in pair.out_vertices(u):
                if not good_arc[(u, w)]:
                    ok = False
                    break
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        cert[v] = ok
    return cert


def has_fixed_cylinder(
    pair: MatrixPair, vertex: int, exponent: int, state_cap: int = 64
) -> FixedCylinderResult:
    """Search for a cylinder every point of which is fixed by the vertex
    unitary's power.

    States are (vertex, exact trace value); transitions multiply by B/A per
    support arc.  A state is certainly good when its trace is zero or when
    every forward-reachable arc has A | B.  When the integral part of the
    state graph closes within the cap, the answer is exact: a cylinder
    exists iff some explored state cannot reach a state with a
    non-integral outgoing step.  Otherwise the answer is Unknown.
    """
    if exponent == 0:
        raise DomainError("probe exponent must be nonzero")
    cert = _vertex_divisibility_certificate(pair)
    start = (vertex, Fraction(exponent))
    parent: dict[tuple[int, Fraction], tuple[tuple[int, Fraction], Edge] | None] = {start: None}

    def witness_path(state: tuple[int, Fraction]) -> PathWord:
        steps: list[Edge] = []
        cur: tuple[int, Fraction] | None = state
        while parent[cur] is not None:
            prev, edge = parent[cur]
            steps.append(edge)
            cur = prev
        steps.reverse()
        return PathWord(vertex, tuple(steps))

    queue = [start]
    explored: list[tuple[int, Fraction]] = []
    breaking: set[tuple[int, Fraction]] = set()
    edges_out: dict[tuple[int, Fraction], list[tuple[int, Fraction]]] = {}
    truncated = False
    while queue:
        state = queue.pop(0)
        v, k = state
        explored.append(state)
        if k == 0 or cert[v]:
            return FixedCylinderResult("yes", witness_path(state))
        edges_out[state] = []
        for w in pair.out_vertices(v):
            k2 = k * Fraction(pair.b_at(v, w), pair.a_at(v, w))
            if k2.denominator != 1:
                breaking.add(state)
                continue
            nxt = (w, k2)
            edges_out[state].append(nxt)
            if nxt not in parent:
                if len(parent) >= state_cap:
                    truncated = True
                else:
                    parent[nxt] = (state, (v, w, 1))
                    queue.append(nxt)
    if truncated:
        return FixedCylinderResult("unknown")
    # closed state graph: a state that cannot reach a breaking state is good
    reaches_break = set(breaking)
    changed = True
    while changed:
        changed = False
        for state in explored:
            if state not in reaches_break and any(
                n in reaches_break for n in edges_out[state]
            ):
                reaches_break.add(state)
                changed = True
    for state in explored:
        if state not in reaches_break:
            return FixedCylinderResult("yes", witness_path(state))
    return FixedCylinderResult("no")



def capped_germ_equal(
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
        if not _starts(elem.right, x.unfold(len(elem.right))):
            raise DomainError("point lies outside the element's domain")
    p, q = len(x.preperiod), len(x.period)
    seen: set[tuple[int, int, int]] = set()
    for depth in range(depth_cap + 1):
        prefix = x.unfold(depth)
        e = _triple(pair, prefix, 0, prefix)
        xs = pairwise_multiply(pair, s, e)
        xt = pairwise_multiply(pair, t, e)
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
