"""Census: `analyze` on every small pair, counted in a committed table.

The golden tables sample seeded draws; the census enumerates.  A stratum is
every admissible pair whose entries lie in given ranges, one pair per orbit
of the vertex permutations: the least image, comparing the (A, B) cells
row by row.

- `small`: N = 1 with A in 1..4 and B in -4..4, then N = 2 with A-entries
  in 0..2 and no zero row, and B in -2..2 on A's support (0 off it).
- `n3`: N = 3 with A-entries in {0, 1} and no zero row, and B in
  {-1, 0, 1} on A's support.

`golden/census.txt` holds, per stratum, the number of pairs, per condition
(E) and per verdict the count of each value, and one sha256 over every
report exactly as `katsura analyze --json` prints it, in enumeration order.
A change that moves an answer moves a count or the digest, and rewrites the
table in the same commit.  The tier-1 tests check `small`; `n3` takes a few
seconds more and runs as a script.  To rewrite the table, or to check one
stratum against it:

    PYTHONPATH=src python tests/test_census.py
    PYTHONPATH=src python tests/test_census.py --check n3
"""

from __future__ import annotations

import hashlib
import sys
from functools import cache
from itertools import permutations, product
from pathlib import Path

from katsura.cli import _json_indented, _report_dict
from katsura.decisions import analyze
from katsura.ktheory import AbelianGroup, abelian_group
from katsura.matrices import MatrixPair

from oracles import has_proper_hereditary_saturated_set

TABLE = Path(__file__).resolve().parent / "golden" / "census.txt"
VALUES = ("yes", "no", "unknown")


def canonical_pairs(n: int, a_values: range, b_values: range) -> list[MatrixPair]:
    """Every admissible pair of size n with entries in the ranges, one per
    orbit of the vertex permutations, in increasing order of its cells."""
    cells = [(0, 0)] + [(a, b) for a in a_values if a for b in b_values]
    rows = [row for row in product(cells, repeat=n) if any(a for a, _ in row)]
    # a permutation p carries the cell at (i, j) to (p[i], p[j])
    sources = []
    for p in permutations(range(n)):
        if p != tuple(range(n)):
            back = {p[i]: i for i in range(n)}
            sources.append([back[k // n] * n + back[k % n] for k in range(n * n)])
    pairs = []
    for choice in product(rows, repeat=n):
        code = sum(choice, ())
        if all(code <= tuple([code[k] for k in src]) for src in sources):
            a = [[code[i * n + j][0] for j in range(n)] for i in range(n)]
            b = [[code[i * n + j][1] for j in range(n)] for i in range(n)]
            pairs.append(MatrixPair.from_rows(a, b))
    return pairs


STRATA = {
    "small": lambda: canonical_pairs(1, range(1, 5), range(-4, 5)) + canonical_pairs(2, range(3), range(-2, 3)),
    "n3": lambda: canonical_pairs(3, range(2), range(-1, 2)),
}


@cache
def census(stratum: str) -> tuple[tuple[MatrixPair, ...], tuple]:
    """The stratum's pairs and their reports."""
    pairs = tuple(STRATA[stratum]())
    return pairs, tuple(map(analyze, pairs))


def table_rows(stratum: str) -> list[str]:
    pairs, reports = census(stratum)
    counts: dict[tuple[str, str, str], int] = {}
    digest = hashlib.sha256()
    for report in reports:
        e = report.condition_e.value
        for name, v in report.verdict_fields().items():
            key = (e, name, v.value)
            counts[key] = counts.get(key, 0) + 1
        digest.update((_json_indented(_report_dict(report)) + "\n").encode())
    without_e = sum(r.condition_e.value == "no" for r in reports)
    rows = [f"{stratum} pairs {len(pairs)} without-E {without_e}"]
    for e in ("yes", "no"):
        for name in reports[0].verdict_fields():
            spelled = " ".join(f"{value} {counts.get((e, name, value), 0)}" for value in VALUES)
            rows.append(f"{stratum} E={e} {name} {spelled}")
    rows.append(f"{stratum} digest {digest.hexdigest()}")
    return rows


def expected_rows(stratum: str) -> list[str]:
    return [line for line in TABLE.read_text().splitlines() if line.split(" ", 1)[0] == stratum]


def test_small_stratum_matches_table():
    actual = table_rows("small")
    expected = expected_rows("small")
    changed = [f"{old!r} -> {new!r}" for old, new in zip(expected, actual) if old != new]
    assert not changed, f"{len(changed)} rows changed: {changed}"
    assert len(actual) == len(expected)
    assert actual[0] == "small pairs 7296 without-E 4024"


def test_minimal_agrees_with_hereditary_saturated_sets():
    for pair, report in zip(*census("small")):
        expected = "no" if has_proper_hereditary_saturated_set(pair) else "yes"
        assert report.minimal.value == expected, pair


def _swapped(pair: MatrixPair) -> MatrixPair:
    return MatrixPair.from_rows([row[::-1] for row in pair.a[::-1]], [row[::-1] for row in pair.b[::-1]])


def test_swapping_the_vertices_leaves_the_report_unchanged():
    # every fourth N = 2 pair; a fixed cylinder names its vertex, so that
    # reason is compared by tag alone
    pairs, reports = census("small")
    checked = 0
    for k in range(0, len(pairs), 4):
        pair, report = pairs[k], reports[k]
        if pair.n != 2:
            continue
        swapped = analyze(_swapped(pair))
        assert swapped.kgroups == report.kgroups and swapped.notes == report.notes, pair
        for (name, v), w in zip(report.verdict_fields().items(), swapped.verdict_fields().values()):
            assert w.value == v.value, (pair, name)
            assert [(r.tag, r.tag == "fixed-cylinder" or r.text) for r in w.reasons] == [
                (r.tag, r.tag == "fixed-cylinder" or r.text) for r in v.reasons
            ], (pair, name)
        checked += 1
    assert checked >= 1800


def test_cuntz_algebras():
    # A=[[n]], B=[[0]] is the Cuntz algebra O_n (O_1 = C(T) for n = 1)
    pairs, reports = census("small")
    by_pair = dict(zip(pairs, reports))
    for n in range(1, 5):
        report = by_pair[MatrixPair.from_rows([[n]], [[0]])]
        assert any(note.startswith("B = 0:") for note in report.notes), n
        expected = (AbelianGroup(1), AbelianGroup(1)) if n == 1 else (abelian_group(0, [n - 1]), AbelianGroup(0))
        assert (report.kgroups.k0, report.kgroups.k1) == expected, n


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        stratum = sys.argv[2]
        if table_rows(stratum) != expected_rows(stratum):
            sys.exit(f"census stratum {stratum} does not match {TABLE.name}")
        print(f"census stratum {stratum} matches")
    else:
        TABLE.write_text("".join("\n".join(table_rows(name)) + "\n" for name in STRATA))
