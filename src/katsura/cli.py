"""Command-line surface.

Exit codes: 0 success, 1 validation/semantic error, 2 parse error,
3 strict-mode query answered Unknown.  Errors go to stderr as one-line
JSON with a `kind` field.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import invsemigroup as isg
from . import parsing, semigroupoid as sgp
from .decisions import AnalysisReport, Verdict, analyze
from .errors import (
    LETTER_BUDGET,
    CertificationError,
    DomainError,
    ExprParseError,
    KatsuraError,
    SemanticError,
    StructuralError,
    UnrealizableWithSquareMatrices,
    format_int,
)
from .ktheory import KTheoryResult, k_groups, realize
from .matrices import MatrixPair
from .pathspace import (
    ActResult,
    ActZero,
    NeedLongerPrefix,
    act_on_periodic,
    act_on_prefix,
    generate_fixed_point,
    germ_equal,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_UNKNOWN = 3


def _fail(kind: str, message: str, code: int, **extra) -> int:
    payload = {"kind": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _load_pair(path: str) -> MatrixPair:
    with open(path, "rb") as fh:
        return parsing.parse_matrix_file(fh.read())


def _verdict_dict(v: Verdict) -> dict:
    return {"value": v.value, "reasons": [{"tag": r.tag, "text": r.text} for r in v.reasons]}


def _kgroups_dict(kt: KTheoryResult) -> dict:
    return {
        "k0": parsing.format_group(kt.k0),
        "k1": parsing.format_group(kt.k1),
    }


def _report_dict(report: AnalysisReport) -> dict:
    out = {name: _verdict_dict(v) for name, v in report.verdict_fields().items()}
    out["kgroups"] = _kgroups_dict(report.kgroups)
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def _json_indented(value, pad: str = "\n") -> str:
    """The text of `json.dumps(value, indent=2)` for nested dicts, lists
    and strings.  With an indent, `json.dumps` runs the pure-Python
    encoder; here each string goes through the C escaper that it would
    call, and the layout is joined around it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_indented(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join([_json_indented(v, inner) for v in value]) + pad + "]"


def _print_report(report: AnalysisReport) -> None:
    for name, v in report.verdict_fields().items():
        tags = ", ".join(r.tag for r in v.reasons)
        print(f"{name:24s} {v.value:8s} [{tags}]")
    print(f"{'K0':24s} {parsing.format_group(report.kgroups.k0)}")
    print(f"{'K1':24s} {parsing.format_group(report.kgroups.k1)}")
    for note in report.notes:
        print(f"note: {note}")


def _format_element(e) -> str:
    if isinstance(e, (sgp.HPower, sgp.GWord)):
        return parsing.format_semigroupoid(e)
    return parsing.format_isg(e)


def _cmd_validate(args) -> int:
    try:
        _load_pair(args.file)
    except StructuralError as exc:
        return _fail("validation", str(exc), EXIT_SEMANTIC)
    print("ok")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    pair = _load_pair(args.file)
    report = analyze(pair)
    if args.json:
        print(_json_indented(_report_dict(report)))
    else:
        _print_report(report)
    if args.strict and any(v.value == "unknown" for v in report.verdict_fields().values()):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_kgroups(args) -> int:
    pair = _load_pair(args.file)
    kt = k_groups(pair)
    if args.json:
        print(json.dumps(_kgroups_dict(kt)))
    else:
        print(f"K0 = {parsing.format_group(kt.k0)}")
        print(f"K1 = {parsing.format_group(kt.k1)}")
    return EXIT_OK


def _cmd_realize(args) -> int:
    g0 = parsing.parse_group(args.k0)
    g1 = parsing.parse_group(args.k1)
    cert = realize(g0, g1)
    pair = cert.pair
    # json.dumps cannot print an integer past the digit limit; the longest entry decides
    format_int(max(abs(x) for row in pair.a + pair.b for x in row))
    doc = {
        "N": pair.n,
        "A": [list(row) for row in pair.a],
        "B": [list(row) for row in pair.b],
        "certificate": {
            "k0": parsing.format_group(cert.result.k0),
            "k1": parsing.format_group(cert.result.k1),
            "condition_e": cert.condition_e,
            "irreducible": cert.irreducible,
            "diagonal_conditions": cert.diagonal_conditions,
        },
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_normalize(args) -> int:
    pair = _load_pair(args.file)
    elem = parsing.parse_element(args.expr, pair)
    print(_format_element(elem))
    return EXIT_OK


def _cmd_mul(args) -> int:
    pair = _load_pair(args.file)
    if parsing.looks_like_semigroupoid(args.left) or parsing.looks_like_semigroupoid(args.right):
        f = parsing.parse_semigroupoid(args.left, pair)
        g = parsing.parse_semigroupoid(args.right, pair)
        prod = sgp.compose(pair, f, g)
        print("undefined" if prod is None else parsing.format_semigroupoid(prod))
        return EXIT_OK
    x = parsing.parse_isg(args.left, pair)
    y = parsing.parse_isg(args.right, pair)
    print(parsing.format_isg(isg.multiply(pair, x, y)))
    return EXIT_OK


def _cmd_lcm(args) -> int:
    pair = _load_pair(args.file)
    f = parsing.parse_semigroupoid(args.left, pair)
    g = parsing.parse_semigroupoid(args.right, pair)
    m = sgp.lcm(pair, f, g)
    print("none" if m is None else parsing.format_semigroupoid(m))
    return EXIT_OK


def _cmd_act(args) -> int:
    pair = _load_pair(args.file)
    elem = parsing.parse_isg(args.expr, pair)
    if parsing.is_periodic_literal(args.path):
        x = parsing.parse_periodic_path(args.path, pair)
        image = act_on_periodic(pair, elem, x, args.depth)
        print("0" if isinstance(image, ActZero) else parsing.format_finite_path(image))
        return EXIT_OK
    gamma = parsing.parse_finite_path(args.path, pair)
    outcome = act_on_prefix(pair, elem, gamma)
    if isinstance(outcome, ActZero):
        print("0")
    elif isinstance(outcome, NeedLongerPrefix):
        print("need-longer-prefix")
    else:
        assert isinstance(outcome, ActResult)
        if len(outcome.prefix) > LETTER_BUDGET:
            raise DomainError(f"the path would hold more than {LETTER_BUDGET} letters, the letter budget")
        residual = format_int(outcome.residual)
        print(f"{parsing.format_finite_path(outcome.prefix)} residual {residual}")
    return EXIT_OK


def _cmd_fixedpoint(args) -> int:
    pair = _load_pair(args.file)
    elem = parsing.parse_isg(args.expr, pair)
    prefix = generate_fixed_point(pair, elem, args.depth)
    print("none" if prefix is None else parsing.format_finite_path(prefix))
    return EXIT_OK


def _cmd_germ_eq(args) -> int:
    pair = _load_pair(args.file)
    s = parsing.parse_isg(args.left, pair)
    t = parsing.parse_isg(args.right, pair)
    x = parsing.parse_periodic_path(args.at, pair)
    print(germ_equal(pair, s, t, x))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as the one-line JSON parse error."""

    def error(self, message: str):
        self.exit(_fail("parse", f"{self.prog}: {message}", EXIT_PARSE))


def _depth(text: str) -> int:
    """The type of a `--depth` flag: a nonnegative integer, the length of an
    answer, within the letter budget."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    if value > LETTER_BUDGET:
        raise argparse.ArgumentTypeError(
            f"{value} would take more than {LETTER_BUDGET} letters, the letter budget"
        )
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by every
    `main` call in the process; parsing reads it and never changes it."""
    top = _Parser(prog="katsura", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full structure report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("kgroups", help="K-groups of the pair")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kgroups)

    p = sub.add_parser("realize", help="build a pair with prescribed K-groups")
    p.add_argument("--k0", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("normalize", help="normal form of an element expression")
    p.add_argument("expr")
    p.add_argument("file")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("lcm", help="least common multiple of two semigroupoid elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lcm)

    p = sub.add_parser("act", help="apply an element to a path")
    p.add_argument("expr")
    p.add_argument("path")
    p.add_argument("file")
    p.add_argument(
        "--depth", type=_depth, default=16, help="letters of the image to print; applies only to PRE ~ PER points"
    )
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("fixedpoint", help="prefix of the unique fixed point of an element")
    p.add_argument("expr")
    p.add_argument("file")
    p.add_argument("--depth", type=_depth, required=True)
    p.set_defaults(func=_cmd_fixedpoint)

    p = sub.add_parser("germ-eq", help="compare two germs at a point")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("file")
    p.add_argument("--at", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_germ_eq)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprParseError as exc:
        return _fail("parse", str(exc), EXIT_PARSE, position=exc.position, expected=exc.expected)
    except UnrealizableWithSquareMatrices as exc:
        return _fail("unrealizable", str(exc), EXIT_SEMANTIC)
    except SemanticError as exc:
        return _fail("semantic", str(exc), EXIT_SEMANTIC)
    except (StructuralError, CertificationError) as exc:
        return _fail("structural", str(exc), EXIT_SEMANTIC)
    except KatsuraError as exc:
        return _fail("domain", str(exc), EXIT_SEMANTIC)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_SEMANTIC)


if __name__ == "__main__":
    sys.exit(main())
