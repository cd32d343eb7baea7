"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check of every output against the reference code in oracle.py.

Each operation calls the program the way a user does, through the module
attributes of katsura (so that a traced run sees every call), and returns
its output.  Each check returns (correct, decided, undecided), where the
last two count tri-state answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import deque
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable

from katsura import cli, errors, invsemigroup, ktheory, parsing, pathspace, semigroupoid

import oracle


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, int, int]]


@dataclass
class Workload:
    files: list[str]  # pair files a fresh interpreter loads during set-up
    defects: list[Op]  # known failures, run once by a traced run and not counted (see README)
    ops: list[Op]      # the schedule; a run passes over a prefix of it several times
    rate: float        # executions per second at the commit that defined the benchmark
    min_rounds: int    # passes per run at least, so each latency is a median of several


def interleave(groups: list[list]) -> list:
    """Merge lists so that every prefix of the result holds each list in
    proportion to its length (smooth weighted round robin).  A run that
    stops part way through the schedule still sees the intended mix."""
    total = sum(len(g) for g in groups)
    credit = [0] * len(groups)
    taken = [0] * len(groups)
    out = []
    for _ in range(total):
        for k, g in enumerate(groups):
            credit[k] += len(g)
        k = max(range(len(groups)), key=credit.__getitem__)
        credit[k] -= total
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


def write_pair(path: Path, a, b) -> str:
    path.write_text(json.dumps({"N": len(a), "A": a, "B": b}))
    return str(path)


def load_pair(path: str):
    with open(path, "rb") as fh:
        return parsing.parse_matrix_file(fh.read())


# -- analyze ---------------------------------------------------------------------------

VERDICTS = (
    "condition0", "condition_e", "irreducible", "condition_l", "condition_k",
    "minimal", "topologically_free", "essentially_principal", "hausdorff",
    "simple", "locally_contracting", "purely_infinite_simple", "nuclear", "etale",
)


def report_ok(report: dict, a, b) -> bool:
    """Exact facts must match the reference; one-sided verdicts must not
    contradict them or each other."""
    v = {name: report[name]["value"] for name in VERDICTS}
    if any(x not in ("yes", "no", "unknown") for x in v.values()):
        return False
    if any(not report[name]["reasons"] for name in VERDICTS):
        return False
    irreducible = oracle.strongly_connected(a)
    cond_e, cond_l = oracle.condition_e(a, b), oracle.condition_l(a)

    def yn(flag):
        return "yes" if flag else "no"

    exact = {
        "condition0": "yes", "nuclear": "yes", "etale": "yes",
        "irreducible": yn(irreducible), "minimal": yn(irreducible),
        "condition_e": yn(cond_e), "condition_l": yn(cond_l),
        "condition_k": yn(oracle.condition_k(a)),
    }
    if any(v[name] != value for name, value in exact.items()):
        return False
    implications = (
        v["simple"] != "yes" or (v["minimal"] == "yes" and v["condition_l"] == "yes"),
        v["purely_infinite_simple"] != "yes" or v["simple"] == "yes",
        v["topologically_free"] != "yes" or cond_l,
        v["locally_contracting"] != "yes" or cond_l,
        irreducible or v["simple"] != "yes",
    )
    if not all(implications):
        return False
    free, det_a, det_b = oracle.kgroup_facts(a, b)
    kg = report["kgroups"]
    return oracle.group_matches(kg["k0"], free, det_a) and oracle.group_matches(kg["k1"], free, det_b)


def analyze_op(path: str, a, b) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["analyze", path, "--json"])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return False, 0, 0
        report = json.loads(text)
        undecided = sum(report[name]["value"] == "unknown" for name in VERDICTS)
        return report_ok(report, a, b), len(VERDICTS) - undecided, undecided

    return Op("analyze", run, check)


B_VALUES = (-3, -2, -1, 1, 2, 3)


def dense_pair(rng, n):
    a = [[rng.randint(2, 3) if i == j else rng.randint(1, 3) for j in range(n)] for i in range(n)]
    b = [[rng.choice(B_VALUES) for _ in range(n)] for _ in range(n)]
    return a, b


def sparse_pair(rng, n, chords, condition_e, reach=None):
    """A directed n-cycle plus `chords` extra arcs; a chord jumps at most
    `reach` steps ahead when given.  Without condition E one support arc
    carries B = 0."""
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < n + chords:
        i = rng.randrange(n)
        arcs.add((i, (i + rng.randint(2, reach)) % n if reach else rng.randrange(n)))
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i, j in sorted(arcs):
        a[i][j] = rng.randint(1, 2)
        b[i][j] = rng.choice(B_VALUES)
    if not condition_e:
        i, j = rng.choice(sorted(arcs))
        b[i][j] = 0
    return a, b


# Pairs per schedule for each N; a run passes three times over all 40.  The
# median and the tail percentile (the 11th slowest operation) each sit
# inside a cluster of near-equal operations, so they do not move with the
# luck of the draw: dense costs spread widely with the pair, sparse pairs
# without condition E hardly at all.  Above the tail sit the eight dearest
# operations (dense N = 5 and 7 and the pairs with condition E, 0.4..4 s at
# the commit that defined the benchmark), then the six N = 64 pairs
# (0.3 s), so the tail is the third of those; below them sit three dense
# N = 4 pairs, the eight N = 48 pairs (0.15 s) that hold the median, and
# fifteen cheaper ones.
DENSE_COUNTS = {3: 7, 4: 3, 5: 4, 7: 1}

# Without condition E the escape probes are skipped and pairs stay cheap up
# to N = 64; with it they cost ~0.4 s at N = 16, 0.7..1.5 s at N = 24 and
# ~17 s at N = 64, so only N = 16 runs.
SPARSE_E_COUNTS = {16: 3}
SPARSE_NO_E_COUNTS = {16: 4, 32: 4, 48: 8, 64: 6}
BIG_N = 1100  # beyond the recursion limit of the depth-first searches


def build_analyze(rng, work: Path) -> Workload:
    files, groups = [], []
    for n, count in DENSE_COUNTS.items():
        group = []
        for k in range(count):
            a, b = dense_pair(rng, n)
            path = write_pair(work / f"dense-{n}-{k}.json", a, b)
            files.append(path)
            group.append(analyze_op(path, a, b))
        groups.append(group)
    for condition_e, counts in ((True, SPARSE_E_COUNTS), (False, SPARSE_NO_E_COUNTS)):
        for n, count in counts.items():
            group = []
            for k in range(count):
                a, b = sparse_pair(rng, n, max(2, n // 8), condition_e)
                path = write_pair(work / f"sparse-{int(condition_e)}-{n}-{k}.json", a, b)
                files.append(path)
                group.append(analyze_op(path, a, b))
            groups.append(group)
    # Chords stay local on the big pair, which keeps its reference
    # elimination sparse.
    a, b = sparse_pair(rng, BIG_N, BIG_N // 8, True, reach=4)
    big = write_pair(work / "sparse-big.json", a, b)
    return Workload(files, [analyze_op(big, a, b)], interleave(groups), rate=4.0, min_rounds=3)


# -- algebra -------------------------------------------------------------------------

ALGEBRA_PAIRS = (
    ([[2, 1], [1, 2]], [[1, 1], [1, 1]]),
    ([[2, 1, 0], [0, 1, 2], [1, 0, 3]], [[1, -1, 0], [0, 1, 1], [2, 0, -1]]),
    ([[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 3, 1], [1, 0, 1, 2]],
     [[1, 0, 0, 2], [1, -1, 2, 0], [0, 1, 1, -1], [3, 0, 1, 1]]),
)
# Operations of each kind per pair in one schedule; act and germ give the
# tri-state answers, enough of them to keep decided_ratio steady.
ALGEBRA_COUNTS = {"normalize": 12, "reduce": 12, "mul": 12, "lcm": 12, "act": 24, "fixedpoint": 6, "germ": 24}
# u(i)^k is parsed by k - 1 multiplications; these k run every schedule.
POWERS = (10, 100, 1000, 10000)
GERM_DEPTH_CAP = 32   # germ_equal's default cap
IMAGE_CAP = 64        # image_point's default cap


def strata(rng, count: int) -> list[float]:
    """One fraction in [0, 1) from each of `count` equal strata, shuffled.
    Sizes drawn from them spread the same way on every seed, so the median
    and the tail percentile do not move with the luck of the draw."""
    out = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(out)
    return out


def word_length(u: float) -> int:
    return int(2 ** (4 + 4 * u))  # 16 .. 256 letters, log-uniform


class Graph:
    """Random walks on the support of a fixed pair (vertices from 1)."""

    def __init__(self, a):
        self.a = a
        self.succ = [[j + 1 for j, x in enumerate(row) if x] for row in a]
        self.pred = [[i + 1 for i, row in enumerate(a) if row[j]] for j in range(len(a))]

    def edge(self, rng, i, j):
        return (i, j, rng.randint(1, self.a[i - 1][j - 1]))

    def walk(self, rng, v, length):
        out = []
        for _ in range(length):
            w = rng.choice(self.succ[v - 1])
            out.append(self.edge(rng, v, w))
            v = w
        return out

    def walk_into(self, rng, v, length):
        out = []
        for _ in range(length):
            u = rng.choice(self.pred[v - 1])
            out.append(self.edge(rng, u, v))
            v = u
        return out[::-1]

    def cycle(self, rng, v, length):
        """A closed walk at v: `length` random steps, then a shortest way back."""
        out = self.walk(rng, v, length)
        end = target(v, out)
        prev = {w: end for w in self.succ[end - 1]}
        queue = deque(prev)
        while v not in prev:
            u = queue.popleft()
            for w in self.succ[u - 1]:
                if w not in prev:
                    prev[w] = u
                    queue.append(w)
        back, w = [], v
        while True:
            u = prev[w]
            back.append(self.edge(rng, u, w))
            w = u
            if w == end:
                return out + back[::-1]


def target(base, edges):
    return edges[-1][1] if edges else base


def atoms_text(atoms) -> str:
    return ".".join(f"g({x[1]},{x[2]},{x[3]})" if x[0] == "g" else f"h({x[1]})^{x[2]}" for x in atoms)


def factors_text(factors) -> str:
    parts = []
    for f in factors:
        if f[0] == "s":
            parts.append(f"s({f[1]},{f[2]},{f[3]})")
        elif f[0] == "s*":
            parts.append(f"s({f[1]},{f[2]},{f[3]})*")
        else:
            parts.append(f"u({f[1]})^{f[2]}")
    return ".".join(parts)


def element_factors(left, exponent, right, vertex):
    """Factors of s_left . u(vertex)^exponent . s_right*."""
    return (
        [("s",) + e for e in left]
        + [("u", vertex, exponent)]
        + [("s*",) + e for e in reversed(right)]
    )


def path_text(edges) -> str:
    return "[" + ", ".join(f"({i},{j},{n})" for i, j, n in edges) + "]"


def algebra_ops(rng, a, b, pair, graph: Graph) -> dict[str, list[Op]]:
    n = len(a)
    ops: dict[str, list[Op]] = {kind: [] for kind in ALGEBRA_COUNTS}

    def value(factors):
        return oracle.word_value(a, b, factors)

    def element_point():
        """An element s = I.u^t.J* and a point J.w.(cycle)^inf in its domain."""
        j_word = graph.walk(rng, rng.randint(1, n), rng.randint(1, 6))
        v = target(0, j_word)
        pre = j_word + graph.walk(rng, v, rng.randint(0, 4))
        per = graph.cycle(rng, target(0, pre), rng.randint(0, 5))
        left = graph.walk_into(rng, v, rng.randint(0, 8))
        return left, j_word, v, pre, per

    def point_text(pre, per):
        return f"{path_text(pre)} ~ {path_text(per)}"

    for u in strata(rng, ALGEBRA_COUNTS["normalize"]):
        edges = graph.walk(rng, rng.randint(1, n), word_length(u))
        atoms = []
        for i, j, _ in edges:
            atoms.append(("g", i, j, rng.randint(-2, 3 * a[i - 1][j - 1])))
            if rng.random() < 0.3:
                atoms.append(("h", j, rng.randint(1, 3)))
        text = atoms_text(atoms)
        expected = oracle.format_word(oracle.standard_form(a, b, atoms))

        def run(text=text):
            return parsing.format_semigroupoid(parsing.parse_semigroupoid(text, pair))

        def check(out, expected=expected):
            again = parsing.format_semigroupoid(parsing.parse_semigroupoid(out, pair))
            return out == expected and again == out, 0, 0

        ops["normalize"].append(Op("normalize", run, check))

    for u in strata(rng, ALGEBRA_COUNTS["reduce"]):
        v = rng.randint(1, n)
        factors = []
        for i, j, m in graph.walk(rng, v, word_length(u)):
            if rng.random() < 0.1:
                m += a[i - 1][j - 1] * rng.randint(1, 2)  # offset out of range
            factors.append(("s", i, j, m))
            if rng.random() < 0.25:
                factors.append(("u", j, rng.randint(-4, 4)))
            v = j
        factors += [("s*",) + e for e in reversed(graph.walk_into(rng, v, rng.randint(0, 32)))]
        text = factors_text(factors)
        expected = oracle.format_element(value(factors))

        def run(text=text):
            return parsing.format_isg(parsing.parse_isg(text, pair))

        def check(out, expected=expected):
            return out == expected and parsing.format_isg(parsing.parse_isg(out, pair)) == out, 0, 0

        ops["reduce"].append(Op("reduce", run, check))

    for u in strata(rng, ALGEBRA_COUNTS["mul"]):
        v = rng.randint(1, n)
        short = graph.walk(rng, v, 8 + int(89 * u))  # 8 .. 96
        long_ = short + graph.walk(rng, target(v, short), rng.randint(0, 32))

        def element(right):
            end = target(v, right)
            left = graph.walk_into(rng, end, rng.randint(0, 64))
            return element_factors(left, rng.randint(-5, 5), right, end)

        def co_element(left):
            end = target(v, left)
            right = graph.walk_into(rng, end, rng.randint(0, 64))
            return element_factors(left, rng.randint(-5, 5), right, end)

        # x's adjoint word is a prefix of y's path word, or the other way round
        if rng.random() < 0.5:
            xf, yf = element(short), co_element(long_)
        else:
            xf, yf = element(long_), co_element(short)
        tx, ty = factors_text(xf), factors_text(yf)
        expected = oracle.format_element(oracle.mul(a, b, value(xf), value(yf)))

        def run(tx=tx, ty=ty):
            x, y = parsing.parse_isg(tx, pair), parsing.parse_isg(ty, pair)
            return parsing.format_isg(invsemigroup.multiply(pair, x, y))

        def check(out, tx=tx, ty=ty, expected=expected):
            # laws on the library: associativity with z = y*, and (xy)* = y* x*
            x, y = parsing.parse_isg(tx, pair), parsing.parse_isg(ty, pair)
            z = invsemigroup.star(y)
            mult, star = invsemigroup.multiply, invsemigroup.star
            laws = (
                mult(pair, mult(pair, x, y), z) == mult(pair, x, mult(pair, y, z))
                and star(mult(pair, x, y)) == mult(pair, star(y), star(x))
            )
            return out == expected and laws, 0, 0

        ops["mul"].append(Op("mul", run, check))

    for u in strata(rng, ALGEBRA_COUNTS["lcm"]):
        edges = graph.walk(rng, rng.randint(1, n), word_length(u) // 2)
        f = [("g",) + e for e in edges]
        i, j, m = edges[-1]
        shape = rng.choice(("extend", "same", "diverge", "power"))
        if shape == "extend":
            g = f[:-1] + [("g", i, j, m + a[i - 1][j - 1] * rng.randint(0, 2))]
            g += [("g",) + e for e in graph.walk(rng, j, rng.randint(1, 16))]
        elif shape == "same":
            g = f[:-1] + [("g", i, j, m + a[i - 1][j - 1] * rng.randint(-1, 3))]
        elif shape == "diverge":
            k = rng.randrange(len(edges))
            start = edges[k][0]
            g = f[:k] + [("g",) + e for e in graph.walk(rng, start, len(edges) - k)]
        else:
            g = [("h", edges[0][0], rng.randint(1, 9))]
        if rng.random() < 0.5:
            f, g = g, f
        texts = [atoms_text(f), atoms_text(g)]
        result = oracle.word_lcm(a, oracle.standard_form(a, b, f), oracle.standard_form(a, b, g))
        expected = "none" if result is None else oracle.format_word(result)

        def run(tf=texts[0], tg=texts[1]):
            fe, ge = parsing.parse_semigroupoid(tf, pair), parsing.parse_semigroupoid(tg, pair)
            m = semigroupoid.lcm(pair, fe, ge)
            return "none" if m is None else parsing.format_semigroupoid(m)

        def check(out, expected=expected):
            return out == expected, 0, 0

        ops["lcm"].append(Op("lcm", run, check))

    for _ in range(ALGEBRA_COUNTS["act"]):
        left, j_word, v, pre, per = element_point()
        sf = element_factors(left, rng.randint(-60, 60), j_word, v)
        s = value(sf)
        ts, tx = factors_text(sf), point_text(pre, per)

        def run(ts=ts, tx=tx):
            x = parsing.parse_periodic_path(tx, pair)
            try:
                image = pathspace.image_point(pair, parsing.parse_isg(ts, pair), x, IMAGE_CAP)
            except errors.DepthCapExceeded:
                return "cap"
            return "0" if isinstance(image, pathspace.ActZero) else parsing.format_periodic_path(image)

        def check(out, s=s, pre=pre, per=per, j_len=len(j_word)):
            if out == "cap":
                return not oracle.image_stabilizes(a, b, s, pre, per, IMAGE_CAP), 0, 1
            if out == "0":
                return oracle.act(a, b, s, oracle.unfold(pre, per, j_len)) is None, 1, 0
            head, tail = (oracle.parse_path_text(part) for part in out.split("~"))
            depth = j_len + len(head) + 2 * len(tail) + len(per) + 4
            _, edges, _ = oracle.act(a, b, s, oracle.unfold(pre, per, depth))
            return oracle.unfold(head, tail, len(edges)) == list(edges), 1, 0

        ops["act"].append(Op("act", run, check))

    for u in strata(rng, ALGEBRA_COUNTS["fixedpoint"]):
        v = rng.randint(1, n)
        j_word = graph.walk_into(rng, v, rng.randint(0, 6))
        cyc = graph.cycle(rng, v, rng.randint(0, 6))
        sf = element_factors(j_word + cyc, rng.choice((-1, 1)) * rng.randint(1, 9), j_word, v)
        s, ts, depth = value(sf), factors_text(sf), 256 + int(257 * u)  # 256 .. 512

        def run(ts=ts, depth=depth):
            prefix = pathspace.generate_fixed_point(pair, parsing.parse_isg(ts, pair), depth)
            return "none" if prefix is None else parsing.format_finite_path(prefix)

        def check(out, s=s, depth=depth):
            edges = oracle.parse_path_text(out)
            image = oracle.act(a, b, s, edges)
            return len(edges) == depth and image is not None and list(image[1][:depth]) == list(edges), 0, 0

        ops["fixedpoint"].append(Op("fixedpoint", run, check))

    for _ in range(ALGEBRA_COUNTS["germ"]):
        left, j_word, v, pre, per = element_point()
        t_exp = rng.randint(-20, 20)
        sf = element_factors(left, t_exp, j_word, v)
        if rng.random() < 0.5:  # s cut down to a cylinder around the point
            cyl = oracle.unfold(pre, per, len(j_word) + rng.randint(0, 4))
            tf = sf + [("s",) + e for e in cyl] + [("s*",) + e for e in reversed(cyl)]
        else:
            tf = element_factors(left, t_exp + rng.choice((-1, 1)) * rng.randint(1, 4), j_word, v)
        s, t = value(sf), value(tf)
        texts = (factors_text(sf), factors_text(tf), point_text(pre, per))

        def run(texts=texts):
            ts, tt, tx = texts
            return pathspace.germ_equal(
                pair, parsing.parse_isg(ts, pair), parsing.parse_isg(tt, pair),
                parsing.parse_periodic_path(tx, pair),
            )

        def check(out, s=s, t=t, pre=pre, per=per):
            if out not in ("equal", "not-equal", "unknown"):
                return False, 0, 0
            met = oracle.germs_meet(a, b, s, t, pre, per, GERM_DEPTH_CAP)
            decided = out != "unknown"
            return (out == "equal") == met, int(decided), int(not decided)

        ops["germ"].append(Op("germ", run, check))

    return ops


def power_op(a, b, pair, v, k) -> Op:
    text = f"u({v})^{k}"
    expected = oracle.format_element(oracle.gen_u(b, v, k))

    def run():
        return parsing.format_isg(parsing.parse_isg(text, pair))

    return Op("power", run, lambda out: (out == expected, 0, 0))


def build_algebra(rng, work: Path) -> Workload:
    files, groups = [], []
    powers = []
    for idx, (a, b) in enumerate(ALGEBRA_PAIRS):
        path = write_pair(work / f"algebra-{idx}.json", a, b)
        files.append(path)
        pair = load_pair(path)
        groups += algebra_ops(rng, a, b, pair, Graph(a)).values()
        powers += [power_op(a, b, pair, rng.randint(1, len(a)), k) for k in POWERS]
    rng.shuffle(powers)
    return Workload(files, [], interleave(groups + [powers]), rate=500.0, min_rounds=4)


# -- ktheory -------------------------------------------------------------------------

# Pairs per schedule for each N; a run passes over the whole schedule six
# times.  Below the N = 20 pairs sit 21 cheaper operations and above
# them 26 dearer ones, so the median lands among the N = 20 pairs; above
# the tail percentile (the 11th slowest) sit the eight N = 50 pairs, so it
# lands among the N = 40 pairs and the realizations of large primes.
KGROUP_COUNTS = {10: 10, 20: 12, 30: 10, 40: 4, 50: 8}
SNF_SIZES = (20, 30, 40)
SMALL_PRIMES = (2, 3, 5, 7)


def kt_pair(rng, n):
    a = [[rng.choice((0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] = max(a[i][i], 1)
    b = [[rng.randint(-2, 2) if a[i][j] else 0 for j in range(n)] for i in range(n)]
    return a, b


def kgroups_op(a, b, pair) -> Op:
    def run():
        kt = ktheory.k_groups(pair)
        return parsing.format_group(kt.k0), parsing.format_group(kt.k1)

    def check(out):
        free, det_a, det_b = oracle.kgroup_facts(a, b)
        return oracle.group_matches(out[0], free, det_a) and oracle.group_matches(out[1], free, det_b), 0, 0

    return Op("kgroups", run, check)


def snf_op(rng, m) -> Op:
    probes = [[rng.randint(-9, 9) for _ in m] for _ in range(2)]

    def run():
        return ktheory.smith_normal_form(m)

    def check(out):
        rank, det = oracle.rank_det_mod(m)
        diag = out.diagonal()
        ok = oracle.smith_ok(m, out.u, out.d, out.v, probes) and sum(1 for d in diag if d) == rank
        if det:
            ok = ok and prod(diag) % oracle.P in (det, -det % oracle.P)
        return ok, 0, 0

    return Op("snf", run, check)


def random_group(rng, free, kind):
    """(text in shuffled, non-canonical order, prime factorizations of the
    cyclic summands)."""
    if kind == "prime":  # one torsion prime near 10^12: trial division is slow
        p = rng.randrange(10**11 + 1, 10**12, 2)
        while not oracle.is_prime(p):
            p += 2
        facs = [{p: 1}, {rng.choice(SMALL_PRIMES): 1}]
    elif kind == "many":  # many summands: a large certified pair
        facs = [{rng.choice(SMALL_PRIMES): rng.randint(1, 3)} for _ in range(rng.randint(8, 24))]
    else:
        facs = [{p: rng.randint(1, 2) for p in rng.sample(SMALL_PRIMES, 2)} for _ in range(rng.randint(0, 3))]
    terms = [f"Z/{prod(p ** e for p, e in f.items())}" for f in facs] + ["Z"] * free
    rng.shuffle(terms)
    return " + ".join(terms) or "0", facs


def realize_op(rng, kind) -> Op:
    free = rng.randint(0, 2)
    t0, f0 = random_group(rng, free, kind)
    t1, f1 = random_group(rng, free, rng.choice(("mixed", kind)))
    want0 = oracle.format_group(free, oracle.invariant_factors(f0))
    want1 = oracle.format_group(free, oracle.invariant_factors(f1))

    def run():
        cert = ktheory.realize(parsing.parse_group(t0), parsing.parse_group(t1))
        pair = cert.pair
        return (parsing.format_group(cert.result.k0), parsing.format_group(cert.result.k1), pair.a, pair.b)

    def check(out):
        k0, k1, a, b = out
        a, b = [list(r) for r in a], [list(r) for r in b]
        got_free, det_a, det_b = oracle.kgroup_facts(a, b)
        ok = (
            (k0, k1) == (want0, want1)
            and got_free == free
            and oracle.group_matches(want0, free, det_a)
            and oracle.group_matches(want1, free, det_b)
            and oracle.condition_e(a, b)
            and oracle.strongly_connected(a)
            and all(a[i][i] >= 2 and b[i][i] == 1 for i in range(len(a)))
        )
        return ok, 0, 0

    return Op("realize", run, check)


def build_ktheory(rng, work: Path) -> Workload:
    files, groups = [], []
    for n, count in KGROUP_COUNTS.items():
        group = []
        for k in range(count):
            a, b = kt_pair(rng, n)
            path = write_pair(work / f"kt-{n}-{k}.json", a, b)
            files.append(path)
            group.append(kgroups_op(a, b, load_pair(path)))
        groups.append(group)
    snf = []
    for n in SNF_SIZES:
        a, b = kt_pair(rng, n)
        files.append(write_pair(work / f"snf-{n}.json", a, b))
        snf.append(snf_op(rng, oracle.i_minus(a)))
    groups.append(snf)
    groups.append([realize_op(rng, kind) for kind in ("prime",) * 2 + ("many",) * 2 + ("mixed",) * 8])
    return Workload(files, [], interleave(groups), rate=11.0, min_rounds=4)


BUILDERS = {
    "analyze": build_analyze,
    "algebra": build_algebra,
    "ktheory": build_ktheory,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Inputs depend on the workload name and the seed only."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), work)
