"""Mutation sampler: does the suite notice a one-token change to a module?

    python tests/mutate.py pathspace [--sample 40] [--seed 0]

Each mutant changes one comparison (`<` to `<=`, `==` to `!=`, `in` to
`not in`, ...), one arithmetic operator (`+` to `-`, `*` to `+`, ...) or one
integer constant (n to n + 1) in `src/katsura/<module>.py`.  It is written
into a temporary copy of the tree, never into `src` itself, and the copy
runs `tests/test_<module>.py` and `tests/test_golden.py`.  Each sampled site
prints as killed (some test failed) or survived.  A survivor either leaves
every answer the same, which is worth a look (it may only add work), or
shows a gap in the tests.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
}


def sites(tree: ast.Module) -> list[tuple[int, int]]:
    """(index of the node in `ast.walk` order, index of the operator) per site."""
    out = []
    for k, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            out += [(k, i) for i, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            out.append((k, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((k, 0))
    return out


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The mutated module's text and a description of the change."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[site[0]]
    if isinstance(node, ast.Constant):
        old, node.value = node.value, node.value + 1
        change = f"{old} -> {node.value}"
    elif isinstance(node, ast.Compare):
        old = node.ops[site[1]]
        node.ops[site[1]] = SWAP[type(old)]()
        change = f"{type(old).__name__} -> {type(node.ops[site[1]]).__name__}"
    else:
        old, node.op = node.op, SWAP[type(node.op)]()
        change = f"{type(old).__name__} -> {type(node.op).__name__}"
    return ast.unparse(tree), f"line {node.lineno}: {change}"


def passes(tree: Path, tests: list[str]) -> bool:
    """Whether the tests pass on the copy; a run past 5 minutes fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=300).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("--sample", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    target = Path("src", "katsura", f"{args.module}.py")
    source = (ROOT / target).read_text()
    every = sites(ast.parse(source))
    chosen = sorted(random.Random(args.seed).sample(every, min(args.sample, len(every))))
    tests = [f"tests/test_{args.module}.py", "tests/test_golden.py"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if not passes(tree, tests):
            print("the unmutated tree fails its tests")
            return 1
        killed = 0
        for site in chosen:
            text, change = mutate(source, site)
            (tree / target).write_text(text)
            survived = passes(tree, tests)
            killed += not survived
            print(f"{change}: {'survived' if survived else 'killed'}", flush=True)
    print(f"{killed} of {len(chosen)} sampled sites killed, of {len(every)} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
