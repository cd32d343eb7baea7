"""What each entry point imports, counted in fresh interpreters.

`import katsura` loads no module of the package; each name of `__all__`
loads its own module on first access.  Loading a pair needs only `errors`,
`matrices` and `parsing`, and not `dataclasses`.  The report commands of
the CLI never load the element layers.  Counting modules, not
milliseconds, makes the gate deterministic; each set is read against what
an empty interpreter already holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ELEMENT_LAYERS = {"katsura.invsemigroup", "katsura.semigroupoid", "katsura.pathspace"}

# prints, as JSON, the modules the code in argv[1] adds to an empty interpreter
_PROBE = """\
import json, sys
before = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _added(code: str, *args: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _pair_file(tmp_path: Path) -> str:
    path = tmp_path / "pair.json"
    path.write_text('{"N": 2, "A": [[2, 1], [1, 2]], "B": [[1, 1], [1, 1]]}')
    return str(path)


def test_import_loads_no_module_of_the_package():
    assert {m for m in _added("import katsura") if m.startswith("katsura")} == {"katsura"}


def test_loading_a_pair_loads_only_what_it_reads(tmp_path):
    code = (
        "import katsura\n"
        "from katsura.parsing import parse_matrix_file\n"
        "with open(sys.argv[2], 'rb') as fh:\n"
        "    parse_matrix_file(fh.read())\n"
    )
    added = _added(code, _pair_file(tmp_path))
    assert {m for m in added if m.startswith("katsura")} == {
        "katsura", "katsura.errors", "katsura.matrices", "katsura.parsing",
    }
    assert "dataclasses" not in added


def test_report_commands_load_no_element_layer(tmp_path):
    code = (
        "import contextlib, io\n"
        "from katsura import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', sys.argv[2], '--json']) == 0\n"
        "    assert cli.main(['kgroups', sys.argv[2]]) == 0\n"
        "    assert cli.main(['validate', sys.argv[2]]) == 0\n"
        "    assert cli.main(['realize', '--k0', 'Z/3 + Z', '--k1', 'Z']) == 0\n"
    )
    added = _added(code, _pair_file(tmp_path))
    assert "katsura.decisions" in added and "katsura.ktheory" in added
    assert not added & ELEMENT_LAYERS


def test_every_public_name_resolves():
    # in a fresh interpreter, so that each name is resolved on first access
    code = (
        "import katsura\n"
        "assert set(katsura.__all__) <= set(dir(katsura)) and len(katsura.__all__) == 23\n"
        "for name in katsura.__all__:\n"
        "    assert getattr(katsura, name) is getattr(katsura, name)\n"
        "names = {}\n"
        "exec('from katsura import *', names)\n"
        "assert set(names) - {'__builtins__'} == set(katsura.__all__)\n"
        "assert all(names[name] is getattr(katsura, name) for name in katsura.__all__)\n"
        "assert katsura.ktheory.k_groups is katsura.k_groups\n"
        "try:\n"
        "    katsura.nope\n"
        "except AttributeError as exc:\n"
        "    assert 'nope' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('katsura.nope resolved')\n"
    )
    assert {m for m in _added(code) if m.startswith("katsura.")} >= {"katsura.decisions", "katsura.pathspace"}
