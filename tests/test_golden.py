"""Golden tables: the answers of the CLI on seeded families of pairs,
regenerated and compared line by line.

`golden/analyze.txt` holds one row per `analyze --json` call: the family and
index of the pair, the first letter of each of the 14 verdicts, the first tag
of each verdict, K0, K1 and a 12-hex digest of the whole JSON text.
`golden/elements.txt` holds one row per element call (`lcm`, `mul` on g/h
words, `fixedpoint` on both word shapes, `act` on a periodic point, then
`normalize` on g/h and s/u/q texts, `act` on a finite path and `germ-eq`,
refused inputs among them): the command, its index, the exit code and a
digest of stdout, stderr and the exit code together.

No pair is stored: each family is drawn from its own seed.  A change that
alters an answer rewrites the tables in the same commit, so the diff names
every changed row.  To rewrite them:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string
import tempfile
from pathlib import Path

from katsura.cli import main
from katsura.decisions import analyze
from katsura.matrices import MatrixPair

from conftest import direct_sum, random_backward_walk, random_pair, random_path_word, random_walk
from oracles import add_transient_vertex

GOLDEN = Path(__file__).resolve().parent / "golden"
TAG_CODES = string.digits + string.ascii_letters


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _write_pair(path: Path, pair: MatrixPair) -> str:
    path.write_text(json.dumps({"N": pair.n, "A": [list(r) for r in pair.a], "B": [list(r) for r in pair.b]}))
    return str(path)


def _b_zero(rng: random.Random) -> MatrixPair:
    pair = random_pair(rng, n_max=5)
    return MatrixPair.from_rows(pair.a, [[0] * pair.n for _ in range(pair.n)])


def _dense(rng: random.Random) -> MatrixPair:
    """Every A-entry positive; B nonzero everywhere (condition E) or not."""
    n = rng.randint(1, 3)
    nonzero = rng.random() < 0.5
    a = [[rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
    b = [[rng.choice((-3, -2, -1, 1, 2, 3)) if nonzero else rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return MatrixPair.from_rows(a, b)


# family name, seed, count, generator
ANALYZE_FAMILIES = (
    ("random", 4001, 400, lambda rng: random_pair(rng, n_max=5)),
    ("random-e", 4002, 400, lambda rng: random_pair(rng, n_max=5, ensure_e=True)),
    ("b-zero", 4003, 200, _b_zero),
    ("transient", 4004, 200, lambda rng: add_transient_vertex(rng, random_pair(rng, n_max=4, ensure_e=rng.random() < 0.5))),
    ("sum", 4005, 150, lambda rng: direct_sum(random_pair(rng, n_max=3), random_pair(rng, n_max=3))),
    ("dense", 4006, 150, _dense),
)


def analyze_rows(workdir: Path) -> list[str]:
    """The rows, after a legend that names each tag by one character, in the
    order the tags first appear."""
    rows = []
    codes: dict[str, str] = {}
    path = workdir / "pair.json"
    for family, seed, count, draw in ANALYZE_FAMILIES:
        rng = random.Random(seed)
        for k in range(count):
            code, out, err = _run(["analyze", _write_pair(path, draw(rng)), "--json"])
            assert code == 0 and not err, (family, k, err)
            doc = json.loads(out)
            verdicts = [v for v in doc.values() if "value" in v]
            letters = "".join(v["value"][0] for v in verdicts)
            tags = [v["reasons"][0]["tag"] if v["reasons"] else "-" for v in verdicts]
            for tag in tags:
                codes.setdefault(tag, TAG_CODES[len(codes)])
            spelled = "".join(codes[tag] for tag in tags)
            k0, k1 = doc["kgroups"]["k0"], doc["kgroups"]["k1"]
            rows.append(f"{family} {k:04d} {letters} {spelled} | {k0} | {k1} | {_digest(out)}")
    return [f"# tag {c} {tag}" for tag, c in codes.items()] + rows


# -- element commands ------------------------------------------------------------

def _sgp_text(rng: random.Random, pair: MatrixPair, start: int) -> tuple[str, int]:
    """A raw g/h word from `start` and its end vertex: h-atoms (any exponent)
    between g-atoms with offsets out of range, or a lone positive h-power."""
    if rng.random() < 0.2:
        t = rng.randint(1, 4)
        return (f"h({start})" if t == 1 else f"h({start})^{t}"), start
    atoms = []
    walk = random_walk(rng, pair, start, rng.randint(1, 3))
    for i, j, n in walk:
        if rng.random() < 0.3:
            atoms.append(f"h({i})^{rng.randint(-2, 3)}")
        atoms.append(f"g({i},{j},{n + pair.a_at(i, j) * rng.randint(-2, 2)})")
    return ".".join(atoms), walk[-1][1]


def _faulty_sgp_text(rng: random.Random, pair: MatrixPair) -> str:
    """A word the CLI refuses: a pure h-word with a nonpositive exponent, an
    arc out of range, or (mostly) two g-atoms that do not compose."""
    v = rng.choice(pair.vertices)
    kind = rng.randrange(3)
    if kind == 0:
        return f"h({v})^{rng.randint(-2, 0)}"
    if kind == 1:
        return f"g({v},{pair.n + 1},1)"
    u = rng.choice(pair.vertices)
    return f"g({v},{rng.choice(pair.out_vertices(v))},1).g({u},{rng.choice(pair.out_vertices(u))},1)"


def _lcm_texts(rng: random.Random, pair: MatrixPair) -> tuple[str, str]:
    """Two independent words, or two cuts of one walk with shifted final
    offsets, so that common multiples are frequent."""
    if rng.random() < 0.4:
        return _sgp_text(rng, pair, rng.choice(pair.vertices))[0], _sgp_text(rng, pair, rng.choice(pair.vertices))[0]
    walk = random_walk(rng, pair, rng.choice(pair.vertices), rng.randint(1, 4))

    def cut() -> str:
        if rng.random() < 0.15:
            return f"h({walk[0][0]})^{rng.randint(1, 3)}"
        prefix = list(walk[: rng.randint(1, len(walk))])
        i, j, n = prefix[-1]
        prefix[-1] = (i, j, n + rng.randint(-4, 4))
        return ".".join(f"g({i},{j},{n})" for i, j, n in prefix)

    return cut(), cut()


def _isg_text(left: tuple, t: int, right: tuple, vertex: int) -> str:
    """s_left u(vertex)^t s_right*, spelled factor by factor."""
    parts = [f"s({i},{j},{n})" for i, j, n in left]
    if t:
        parts.append(f"u({vertex})^{t}")
    parts += [f"s({i},{j},{n})*" for i, j, n in reversed(right)]
    return ".".join(parts) or f"q({vertex})"


def _random_isg_text(rng: random.Random, pair: MatrixPair) -> str:
    left = random_path_word(rng, pair, 3)
    right = random_backward_walk(rng, pair, left.target, rng.randint(0, 3))
    return _isg_text(left.edges, rng.randint(-4, 4), right, left.target)


def _point(rng: random.Random, pair: MatrixPair) -> tuple[tuple, tuple] | None:
    """Preperiod and period of an eventually periodic point, or None when the
    drawn walk does not close."""
    pre = random_path_word(rng, pair, 2)
    per = random_walk(rng, pair, pre.target, rng.randint(1, 3))
    return (pre.edges, per) if per[-1][1] == pre.target else None


def _path_text(edges: tuple) -> str:
    return "[" + ", ".join(f"({i},{j},{n})" for i, j, n in edges) + "]"


def element_calls(rng: random.Random, pair: MatrixPair, path: str) -> list[tuple[str, list[str]]]:
    calls = []
    for _ in range(2):
        f, g = _lcm_texts(rng, pair)
        if rng.random() < 0.1:
            f = _faulty_sgp_text(rng, pair)
        calls.append(("lcm", ["lcm", f, g, path]))
    for _ in range(2):
        f, end = _sgp_text(rng, pair, rng.choice(pair.vertices))
        # half the time g starts where f ends, so the product is defined
        start = end if rng.random() < 0.5 else rng.choice(pair.vertices)
        g = _sgp_text(rng, pair, start)[0] if rng.random() < 0.9 else _faulty_sgp_text(rng, pair)
        calls.append(("mul", ["mul", f, g, path]))
    for _ in range(2):
        point = _point(rng, pair)
        depth = str(rng.randint(0, 24))
        if point is None:  # a random element: mostly no fixed point, or an idempotent
            calls.append(("fixedpoint", ["fixedpoint", _random_isg_text(rng, pair), path, "--depth", depth]))
            continue
        base, cycle = point
        t = rng.randint(-3, 3)
        v = cycle[0][0]
        long_ = base + cycle
        if rng.random() < 0.1:  # an idempotent: its fixed points are not unique
            calls.append(("fixedpoint", ["fixedpoint", _isg_text(long_, 0, long_, v), path, "--depth", depth]))
        calls.append(("fixedpoint", ["fixedpoint", _isg_text(long_, t, base, v), path, "--depth", depth]))
        calls.append(("fixedpoint", ["fixedpoint", _isg_text(base, t, long_, v), path, "--depth", depth]))
    for _ in range(2):
        point = _point(rng, pair)
        if point is None:
            continue
        pre, per = point
        text = f"{_path_text(pre)} ~ {_path_text(per)}"
        if rng.random() < 0.3:
            expr = _random_isg_text(rng, pair)
        else:
            # an element whose adjoint word is a prefix of the point
            unfolded = list(pre)
            while len(unfolded) < 4:
                unfolded += per
            right = tuple(unfolded[: rng.randint(0, 4)])
            target = right[-1][1] if right else (pre[0][0] if pre else per[0][0])
            left = random_backward_walk(rng, pair, target, rng.randint(0, 3))
            expr = _isg_text(left, rng.randint(-4, 4), right, target)
        calls.append(("act", ["act", expr, text, path, "--depth", str(rng.randint(0, 20))]))
    return calls


def _faulty_isg_text(rng: random.Random, pair: MatrixPair) -> str:
    """An s/u/q text the CLI mostly refuses: a vertex out of range, an arc
    off the support, a cut-off text or a stray character.  Where A has no
    zero entry in the row, the arc gets an offset past A instead, which
    folds into a unitary power."""
    v = rng.choice(pair.vertices)
    text = _random_isg_text(rng, pair)
    kind = rng.randrange(4)
    if kind == 0:
        return f"{text}.u({pair.n + 1})"
    if kind == 1:
        off = [j for j in pair.vertices if pair.a_at(v, j) == 0]
        return f"s({v},{off[0]},1)" if off else f"s({v},{v},{pair.a_at(v, v) + 1})"
    if kind == 2:
        return text[: rng.randrange(1, len(text))] if len(text) > 1 else "s(1"
    return text + rng.choice(("..", ")", "^", "*", " ~"))


def _adjoint_on_point(rng: random.Random, pair: MatrixPair, pre: tuple, per: tuple) -> tuple[tuple, tuple, int]:
    """A left word, an adjoint word that is a prefix of the point, and their
    common vertex: an element whose domain holds the point."""
    unfolded = list(pre)
    while len(unfolded) < 4:
        unfolded += per
    right = tuple(unfolded[: rng.randint(0, 4)])
    target = right[-1][1] if right else (pre[0][0] if pre else per[0][0])
    return random_backward_walk(rng, pair, target, rng.randint(0, 3)), right, target


def gap_calls(rng: random.Random, pair: MatrixPair, path: str) -> list[tuple[str, list[str]]]:
    """`normalize` on g/h and s/u/q texts, `act` on a finite path and
    `germ-eq`, with refused inputs among them."""
    calls = []
    for _ in range(2):
        kind = rng.randrange(6)
        if kind == 0:
            expr = _sgp_text(rng, pair, rng.choice(pair.vertices))[0]
        elif kind == 1:
            expr = _random_isg_text(rng, pair)
        elif kind == 2:
            expr = f"{_random_isg_text(rng, pair)}.{_random_isg_text(rng, pair)}"
        elif kind == 3:
            expr = _faulty_sgp_text(rng, pair)
        elif kind == 4:
            expr = _faulty_isg_text(rng, pair)
        else:
            expr = f"({_random_isg_text(rng, pair)})*.{_random_isg_text(rng, pair)}"
        calls.append(("normalize", ["normalize", expr, path]))
    for _ in range(2):
        word = random_path_word(rng, pair, 5)
        gamma = word.edges
        text = _path_text(gamma) if gamma else f"[]@{word.base}"
        if rng.random() < 0.1:
            text = _path_text(gamma + ((pair.n + 1, 1, 1),))
        if rng.random() < 0.4 or not gamma:
            expr = _random_isg_text(rng, pair)
        else:
            # an adjoint word that is a prefix of gamma, or that gamma is a prefix of
            cut = rng.randint(0, len(gamma) + 1)
            right = gamma[:cut] if cut <= len(gamma) else gamma + random_walk(rng, pair, gamma[-1][1], 1)
            target = right[-1][1] if right else gamma[0][0]
            left = random_backward_walk(rng, pair, target, rng.randint(0, 3))
            expr = _isg_text(left, rng.randint(-4, 4), right, target)
        calls.append(("act", ["act", expr, text, path]))
    point = _point(rng, pair)
    if point is not None:
        pre, per = point
        at = f"{_path_text(pre)} ~ {_path_text(per)}"
        left, right, v = _adjoint_on_point(rng, pair, pre, per)
        t = rng.randint(-4, 4)
        s = _isg_text(left, t, right, v)
        kind = rng.randrange(5)
        if kind == 0:  # s times a cylinder projection along the point: the same germ
            cyl = _adjoint_on_point(rng, pair, pre, per)[1]
            other = f"{s}.{_isg_text(cyl, 0, cyl, cyl[-1][1] if cyl else v)}" if cyl else s
        elif kind == 1:  # another exponent on the same words
            other = _isg_text(left, t + rng.choice((-2, -1, 1, 2)), right, v)
        elif kind == 2:
            left2, right2, v2 = _adjoint_on_point(rng, pair, pre, per)
            other = _isg_text(left2, rng.randint(-4, 4), right2, v2)
        elif kind == 3:  # mostly outside the point's domain
            other = _random_isg_text(rng, pair)
        else:
            other = rng.choice(("0", _faulty_isg_text(rng, pair)))
        calls.append(("germ-eq", ["germ-eq", s, other, path, "--at", at]))
    return calls


def element_rows(workdir: Path) -> list[str]:
    rows = []
    path = workdir / "pair.json"
    counts: dict[str, int] = {}
    for seed, count, calls in ((4100, 250, element_calls), (4200, 120, gap_calls)):
        rng = random.Random(seed)
        for _ in range(count):
            pair = random_pair(rng, n_max=3, ensure_e=rng.random() < 0.5)
            for command, argv in calls(rng, pair, _write_pair(path, pair)):
                code, out, err = _run(argv)
                k = counts[command] = counts.get(command, -1) + 1
                rows.append(f"{command} {k:04d} {code} {_digest(chr(0).join((out, err, str(code))))}")
    return rows


TABLES = {"analyze.txt": analyze_rows, "elements.txt": element_rows}


def test_tables_match(tmp_path):
    for name, rows in TABLES.items():
        expected = (GOLDEN / name).read_text().splitlines()
        actual = rows(tmp_path)
        changed = [f"{old!r} -> {new!r}" for old, new in zip(expected, actual) if old != new]
        assert not changed, f"{name}: {len(changed)} rows changed, first: {changed[:3]}"
        assert len(actual) == len(expected), name


# the 14 verdicts in the order of `analyze --json` and of the letters in a row
VERDICTS = (
    "condition0", "condition_e", "irreducible", "condition_l", "condition_k", "minimal",
    "topologically_free", "essentially_principal", "hausdorff", "simple",
    "locally_contracting", "purely_infinite_simple", "nuclear", "etale",
)
PREMISES = ("simple", "purely_infinite_simple", "topologically_free", "condition_e")


def test_verdict_implications_on_every_analyze_row():
    # what the theorems behind the verdicts imply, read off the committed
    # letters: simple needs minimal and L, purely infinite simple needs
    # simple, topologically free gives essentially principal, and under E
    # the two agree
    assert tuple(analyze(MatrixPair.from_rows([[1]], [[1]])).verdict_fields()) == VERDICTS
    rows = [line.split() for line in (GOLDEN / "analyze.txt").read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == sum(count for _, _, count, _ in ANALYZE_FAMILIES)
    premises = set()
    for family, k, letters, *_ in rows:
        v = dict(zip(VERDICTS, letters, strict=True))
        if v["simple"] == "y":
            assert v["minimal"] == v["condition_l"] == "y", (family, k)
        if v["purely_infinite_simple"] == "y":
            assert v["simple"] == "y", (family, k)
        if v["topologically_free"] == "y":
            assert v["essentially_principal"] == "y", (family, k)
        if v["condition_e"] == "y":
            assert v["essentially_principal"] == v["topologically_free"], (family, k)
        premises.update(name for name in PREMISES if v[name] == "y")
    assert premises == set(PREMISES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in TABLES.items():
            (GOLDEN / name).write_text("\n".join(rows(Path(tmp))) + "\n")
