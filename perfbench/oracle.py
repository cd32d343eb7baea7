"""Reference computations that the benchmark checks the program's outputs with.

Nothing here imports katsura.  Each check recomputes a fact from the raw
matrices, or from the structure the generator built, with code of its own,
so that a defect in the library is not hidden by the same defect in its
check.  Matrices are lists of rows indexed from 0; vertices in edges and in
the texts the library reads and prints are numbered from 1.
"""

from __future__ import annotations

import re
from math import prod

# Rank and determinant are checked modulo this prime: a false rank drop needs
# the prime to divide every maximal minor, which the seeded inputs never hit.
P = 2**61 - 1


# -- graph facts ----------------------------------------------------------------

def successors(a):
    return [[j for j, x in enumerate(row) if x] for row in a]


def _reach(succ, start):
    seen = {start}
    stack = [start]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected(a):
    """A positive-length path joins every ordered pair of vertices.  Rows of
    A are never zero, so a single vertex carries a loop."""
    succ = successors(a)
    pred = [[] for _ in a]
    for i, outs in enumerate(succ):
        for j in outs:
            pred[j].append(i)
    return len(_reach(succ, 0)) == len(a) == len(_reach(pred, 0))


def condition_e(a, b):
    return all(b[i][j] != 0 for i, row in enumerate(a) for j, x in enumerate(row) if x)


def condition_l(a):
    """A cycle without exit runs through vertices whose only edge is the
    next cycle edge, i.e. vertices whose A-row sums to 1."""
    nxt = {i: row.index(1) for i, row in enumerate(a) if sum(row) == 1}
    walk_of = {}
    for start in nxt:
        v = start
        while v in nxt and v not in walk_of:
            walk_of[v] = start
            v = nxt[v]
        if walk_of.get(v) == start and v in nxt:
            return False
    return True


def _components(succ):
    """Strongly connected components (iterative Kosaraju)."""
    n = len(succ)
    order, seen = [], [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in range(n)]
    for i, outs in enumerate(succ):
        for j in outs:
            pred[j].append(i)
    comp = [-1] * n
    members = []
    for s in reversed(order):
        if comp[s] != -1:
            continue
        comp[s] = len(members)
        group, stack = [s], [s]
        while stack:
            for w in pred[stack.pop()]:
                if comp[w] == -1:
                    comp[w] = comp[s]
                    group.append(w)
                    stack.append(w)
        members.append(group)
    return comp, members


def condition_k(a):
    """Every vertex on a cycle bases two first-return paths.  That fails
    exactly on a component that is a bare cycle of single edges."""
    succ = successors(a)
    comp, members = _components(succ)
    for c, group in enumerate(members):
        inner = {v: [w for w in succ[v] if comp[w] == c] for v in group}
        if any(inner.values()) and all(
            len(ws) == 1 and a[v][ws[0]] == 1 for v, ws in inner.items()
        ):
            return False
    return True


# -- linear algebra and groups ----------------------------------------------------

def rank_det_mod(m, p=P):
    """Rank of a square integer matrix over GF(p), and its determinant mod p
    up to sign (0 when singular).  Rows are sparse dicts."""
    rows = [{j: x % p for j, x in enumerate(row) if x % p} for row in m]
    rows = [r for r in rows if r]
    rank, det = 0, 1
    for col in range(len(m)):
        hits = [k for k, r in enumerate(rows) if col in r]
        if not hits:
            det = 0
            continue
        k = min(hits, key=lambda h: len(rows[h]))
        piv = rows.pop(k)
        det = det * piv[col] % p
        rank += 1
        inv = pow(piv[col], -1, p)
        for r in (rows[h if h < k else h - 1] for h in hits if h != k):
            f = r[col] * inv % p
            for j, x in piv.items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
    return rank, det


def i_minus(m):
    n = len(m)
    return [[(i == j) - m[i][j] for j in range(n)] for i in range(n)]


def kgroup_facts(a, b):
    """(free rank of K0 and K1, det(I-A) mod P or None, det(I-B) mod P or None)."""
    n = len(a)
    ra, da = rank_det_mod(i_minus(a))
    rb, db = rank_det_mod(i_minus(b))
    return 2 * n - ra - rb, (da if ra == n else None), (db if rb == n else None)


_FREE = re.compile(r"Z(?:\^([2-9]|[1-9]\d+))?")
_TORSION = re.compile(r"Z/([1-9]\d*)")


def parse_group_text(text):
    """Canonical group text -> (free rank, torsion list), or None when the
    text is not in invariant factor form."""
    if text == "0":
        return 0, []
    terms = text.split(" + ")
    free = 0
    m = _FREE.fullmatch(terms[0])
    if m:
        free = int(m.group(1) or 1)
        terms = terms[1:]
    torsion = []
    for term in terms:
        m = _TORSION.fullmatch(term)
        if m is None:
            return None
        torsion.append(int(m.group(1)))
    if any(d < 2 for d in torsion) or any(e % d for d, e in zip(torsion, torsion[1:])):
        return None
    return free, torsion


def group_matches(text, free, det):
    """The group text is canonical, has this free rank and, when the
    relevant matrix is nonsingular, torsion of order |det| (mod P)."""
    g = parse_group_text(text)
    if g is None or g[0] != free:
        return False
    return det is None or prod(g[1]) % P in (det, -det % P)


def invariant_factors(prime_powers):
    """Invariant factors of a sum of cyclic groups, each given by its prime
    factorization {p: e}; no factoring needed."""
    by_prime = {}
    for fac in prime_powers:
        for p, e in fac.items():
            by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    out = []
    for k in range(width):
        out.append(prod(p ** sorted(es, reverse=True)[k] for p, es in by_prime.items() if k < len(es)))
    return sorted(f for f in out if f > 1)


def format_group(free, torsion):
    parts = ([] if not free else ["Z"] if free == 1 else [f"Z^{free}"]) + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) or "0"


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in bases:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def matvec(m, x):
    return [sum(r * y for r, y in zip(row, x)) for row in m]


def smith_ok(m, u, d, v, probes):
    """u.m.v = d (checked on random vectors), d is diagonal with nonnegative
    entries each dividing the next, and u, v are invertible over Z."""
    n = len(m)
    diag = [d[i][i] for i in range(n)]
    if any(d[i][j] for i in range(n) for j in range(n) if i != j) or min(diag) < 0:
        return False
    if any(e % c if c else e for c, e in zip(diag, diag[1:])):
        return False
    for x in probes:
        if matvec(u, matvec(m, matvec(v, x))) != [c * y for c, y in zip(diag, x)]:
            return False
    for w in (u, v):
        rank, det = rank_det_mod(w)
        if rank != n or det not in (1, P - 1):
            return False
    return True


# -- path words and partial isometries ----------------------------------------------
# An element is None (zero) or (left_base, left_edges, exponent, right_base,
# right_edges); edges are (i, j, n) tuples with n reduced into [1, A[i][j]].

def push(a, b, t, edges):
    """Carry a unitary exponent across reduced edges: per edge the offset
    moves by t*B, folds back into [1, A], and the fold count carries on."""
    out = []
    for i, j, n in edges:
        aij = a[i - 1][j - 1]
        shifted = n + t * b[i - 1][j - 1]
        m = (shifted - 1) % aij + 1
        out.append((i, j, m))
        t = (shifted - m) // aij
    return tuple(out), t


def _target(base, edges):
    return edges[-1][1] if edges else base


def element(b, lb, le, t, rb, re_):
    """A unitary at a vertex whose B-row vanishes acts as the projection."""
    if t and not any(b[_target(lb, le) - 1]):
        t = 0
    return (lb, tuple(le), t, rb, tuple(re_))


def gen_s(a, b, i, j, n):
    aij = a[i - 1][j - 1]
    m = (n - 1) % aij + 1
    return element(b, i, ((i, j, m),), (n - m) // aij, j, ())


def gen_u(b, v, t):
    return element(b, v, (), t, v, ())


def star(x):
    return None if x is None else (x[3], x[4], -x[2], x[0], x[1])


def mul(a, b, x, y):
    if x is None or y is None:
        return None
    xlb, xle, xt, xrb, xre = x
    ylb, yle, yt, yrb, yre = y
    if xrb == ylb and yle[: len(xre)] == xre:
        pushed, c = push(a, b, xt, yle[len(xre):])
        return element(b, xlb, xle + pushed, c + yt, yrb, yre)
    if xrb == ylb and xre[: len(yle)] == yle:
        pushed, c = push(a, b, -yt, xre[len(yle):])
        return element(b, xlb, xle, xt - c, yrb, yre + pushed)
    return None


def factor_value(a, b, f):
    kind = f[0]
    if kind == "s":
        return gen_s(a, b, *f[1:])
    if kind == "s*":
        return star(gen_s(a, b, *f[1:]))
    if kind == "u":
        return gen_u(b, f[1], f[2])
    raise ValueError(kind)


def word_value(a, b, factors):
    x = factor_value(a, b, factors[0])
    for f in factors[1:]:
        x = mul(a, b, x, factor_value(a, b, f))
    return x


def format_element(x):
    if x is None:
        return "0"
    lb, le, t, rb, re_ = x
    parts = [f"s({i},{j},{n})" for i, j, n in le]
    if t:
        v = _target(lb, le)
        parts.append(f"u({v})" if t == 1 else f"u({v})^{t}")
    parts += [f"s({i},{j},{n})*" for i, j, n in reversed(re_)]
    return ".".join(parts) or f"q({lb})"


def act(a, b, x, path):
    """x applied to a finite path that starts with x's adjoint word:
    (base, image prefix, residual exponent), or None off the domain."""
    lb, le, t, rb, re_ = x
    if tuple(path[: len(re_)]) != re_:
        return None
    pushed, r = push(a, b, t, path[len(re_):])
    end = _target(lb, le + pushed)
    return lb, le + pushed, (r if any(b[end - 1]) else 0)


def unfold(pre, per, depth):
    edges = list(pre)
    while len(edges) < depth:
        edges.extend(per)
    return edges[:depth]


def image_stabilizes(a, b, x, pre, per, cap):
    """Whether x applied to pre.per.per... repeats its residual within `cap`
    period copies (the point where the image turns periodic)."""
    start = max(len(pre), len(x[4]))
    head = act(a, b, x, unfold(pre, per, start))
    if head is None:
        return True
    offset = (start - len(pre)) % len(per)
    loop = per[offset:] + per[:offset]
    t, seen = head[2], set()
    for _ in range(cap):
        if t in seen:
            return True
        seen.add(t)
        _, t = push(a, b, t, loop)
    return False


def germs_meet(a, b, s, t, pre, per, depth_cap):
    """Whether s and t agree on some cylinder around the point within the
    depth cap: equal image prefixes and equal residual exponents."""
    for d in range(max(len(s[4]), len(t[4])), depth_cap + 1):
        path = unfold(pre, per, d)
        if act(a, b, s, path) == act(a, b, t, path):
            return True
    return False


# -- semigroupoid words -----------------------------------------------------------------
# A raw atom is ("h", v, t) or ("g", i, j, n); a standard form is ("h", v, t)
# or ("g", edges) with every offset but the last in [1, A].

def standard_form(a, b, atoms):
    if all(x[0] == "h" for x in atoms):
        return ("h", atoms[0][1], sum(x[2] for x in atoms))
    edges, pending = [], 0
    for x in atoms:
        if x[0] == "h":
            pending += x[2]
        else:
            _, i, j, n = x
            edges.append([i, j, n + pending * b[i - 1][j - 1]])
            pending = 0
    if pending:
        i, j, _ = edges[-1]
        edges[-1][2] += pending * a[i - 1][j - 1]
    for t in range(len(edges) - 1):
        i, j, n = edges[t]
        aij = a[i - 1][j - 1]
        m = (n - 1) % aij + 1
        edges[t][2] = m
        i2, j2, _ = edges[t + 1]
        edges[t + 1][2] += (n - m) // aij * b[i2 - 1][j2 - 1]
    return ("g", tuple(map(tuple, edges)))


def format_word(w):
    if w[0] == "h":
        return f"h({w[1]})" if w[2] == 1 else f"h({w[1]})^{w[2]}"
    return ".".join(f"g({i},{j},{n})" for i, j, n in w[1])


def word_lcm(a, f, g):
    """Least common multiple of two standard forms, or None when disjoint."""
    if f[0] == "h" and g[0] == "h":
        return ("h", f[1], max(f[2], g[2])) if f[1] == g[1] else None
    if f[0] == "h" or g[0] == "h":
        h, w = (f, g) if f[0] == "h" else (g, f)
        return w if w[1][0][0] == h[1] else None
    short, long_ = sorted((f[1], g[1]), key=len)
    k = len(short)
    if any(s[:2] != l[:2] for s, l in zip(short, long_)) or short[: k - 1] != long_[: k - 1]:
        return None
    i, j, n = short[-1]
    if (long_[k - 1][2] - n) % a[i - 1][j - 1]:
        return None
    if len(f[1]) != len(g[1]):
        return ("g", long_)
    return f if f[1][-1][2] >= g[1][-1][2] else g


_EDGE = re.compile(r"\((\d+),(\d+),(-?\d+)\)")


def parse_path_text(text):
    """'[(i,j,n), ...]' or '[]@v' -> edges tuple."""
    return tuple((int(i), int(j), int(n)) for i, j, n in _EDGE.findall(text.split("@")[0]))
