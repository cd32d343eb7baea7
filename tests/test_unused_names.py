"""No definition in `src/katsura` that only tests reach.

A top-level function or class of the package, or a method of one of its
classes other than a dunder, must be named somewhere in `src/katsura` or
`perfbench` outside its own body.  A name counts as dead when its only
references sit inside dead definitions, so the scan repeats until nothing
more dies.  Imports count as references, `katsura/__init__.py`'s included.

References are matched by bare name: a `.edges` attribute anywhere keeps a
method named `edges` alive, whatever it was called on, and a local `h`
keeps a function `h` alive.  So the scan is a safety net against
leftovers, not a proof that every survivor is used.

A second scan leaves perfbench out and pins what only perfbench reaches,
so that code kept alive by the benchmark alone stays in view.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# called from outside the scanned code: argparse calls `error` on a bad
# command line, and the import system calls the package's `__getattr__` and
# `__dir__` (PEP 562) for a public name not yet loaded and for `dir(katsura)`
CALLED_ELSEWHERE = {"cli._Parser.error", "__init__.__getattr__", "__init__.__dir__"}

# named only by perfbench, the tests and the docs
PERFBENCH_ONLY = {
    "ktheory.SmithDecomposition",
    "ktheory.SmithDecomposition.diagonal",
    "ktheory.identity_matrix",
    "ktheory.smith_normal_form",
    "matrices.MatrixPair.out_vertices",
    "parsing.format_periodic_path",
    "pathspace.image_point",
}


def _names(node: ast.AST, skip: set[ast.AST]) -> set[str]:
    """Every name `node` mentions (variables, attributes, imports), not
    looking inside the nodes in `skip`."""
    names, stack = set(), [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        stack.extend(child for child in ast.iter_child_nodes(sub) if child not in skip)
    return names


def dead_definitions(root: Path = ROOT, perfbench: bool = True) -> set[str]:
    """`module.name` or `module.Class.method` of each dead definition; with
    `perfbench` false, perfbench's references do not count."""
    package = root / "src" / "katsura"
    name: dict[str, str] = {}  # key -> the bare name references spell
    refs: dict[str, set[str]] = {}  # key -> names its own body mentions
    inside: dict[str, set[str]] = {}  # key -> keys whose bodies are part of its own
    owner: dict[str, str] = {}  # method key -> class key
    free: set[str] = set()  # names mentioned outside every tracked definition
    users = sorted((root / "perfbench").glob("*.py")) if perfbench else []
    for path in sorted(package.glob("*.py")) + users:
        tree = ast.parse(path.read_text(), str(path))
        tracked: dict[ast.AST, str] = {}
        if path.parent == package:
            for node in tree.body:
                if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                    continue
                key = tracked[node] = f"{path.stem}.{node.name}"
                inside[key] = {key}
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, _FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        method = tracked[item] = f"{key}.{item.name}"
                        inside[key].add(method)
                        inside[method] = {method}
                        owner[method] = key
        for node, key in tracked.items():
            name[key] = key.rpartition(".")[2]
            refs[key] = _names(node, set(tracked) - {node})
        free |= _names(tree, set(tracked))
    dead: set[str] = set()
    while True:
        live = [key for key in refs if key not in dead and owner.get(key) not in dead]
        newly = {
            key
            for key in live
            if key not in CALLED_ELSEWHERE
            and name[key] not in free
            and not any(name[key] in refs[other] for other in live if other not in inside[key])
        }
        if not newly:
            return dead
        dead |= newly


def test_every_definition_is_reached_outside_tests():
    assert sorted(dead_definitions()) == []


def test_definitions_only_perfbench_reaches():
    assert sorted(dead_definitions(perfbench=False)) == sorted(PERFBENCH_ONLY)
