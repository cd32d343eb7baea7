"""Text grammars shared by the command-line surface.

Semigroupoid elements:   h(i), h(i)^t, g(i,j,n)        joined by `.`
Partial isometries:      s(i,j,n), u(i), u(i)^t, q(i), 0; postfix `*` on an
                         atom or parenthesized group;   joined by `.`
Paths:                   [ (i,j,n), ... ]   optionally `@v` on an empty `[]`
Eventually periodic:     PRE ~ PER          with PRE, PER path literals
Abelian groups:          0 | Z | Z^r | Z/d  joined by `+`

Everything parses to normalized values, so `format_x(parse_x(text))` is the
canonical spelling and round-trips.
"""

from __future__ import annotations

import json
import string
import sys

from . import invsemigroup as isg
from . import semigroupoid as sgp
from .errors import (
    LETTER_BUDGET,
    DomainError,
    ExprParseError,
    SemanticError,
    StructuralError,
    format_int,
)
from .invsemigroup import ISgElement, PathWord, Zero, ZERO
from .ktheory import AbelianGroup, abelian_group
from .matrices import MatrixPair
from .pathspace import EventuallyPeriodicPath, periodic_point


# Parenthesized groups nest at most this deep; the expression parser
# recurses once per level, so a deeper text would exhaust the stack.
NESTING_LIMIT = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ExprParseError(self.pos, repr(expected), self.text)
        self.pos += len(expected)

    def try_take(self, expected: str) -> bool:
        self.skip_ws()
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in string.digits:
            self.pos += 1
        if self.pos == digits:
            raise ExprParseError(start, "an integer", self.text)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise ExprParseError(start, f"an integer of at most {limit} digits", self.text) from None

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprParseError(self.pos, "end of input", self.text)


def _check_vertex(pair: MatrixPair, v: int, pos: int, text: str) -> None:
    if not 1 <= v <= pair.n:
        raise SemanticError(f"vertex {v} out of range 1..{pair.n} (at offset {pos} in {text!r})")


def _check_arc(pair: MatrixPair, i: int, j: int, pos: int, text: str) -> None:
    _check_vertex(pair, i, pos, text)
    _check_vertex(pair, j, pos, text)
    if pair.a_at(i, j) == 0:
        raise SemanticError(f"({i},{j}) is not a support arc of A (at offset {pos} in {text!r})")


def looks_like_semigroupoid(text: str) -> bool:
    stripped = text.replace(" ", "")
    return stripped.startswith(("h(", "g("))


# -- semigroupoid expressions -------------------------------------------------

def parse_semigroupoid(text: str, pair: MatrixPair) -> sgp.SgpElement:
    sc = _Scanner(text)
    atoms: list[sgp.RawAtom] = []
    while True:
        pos = sc.pos
        if sc.try_take("h("):
            v = sc.integer()
            sc.take(")")
            _check_vertex(pair, v, pos, text)
            t = sc.integer() if sc.try_take("^") else 1
            atoms.append(sgp.HAtom(v, t))
        elif sc.try_take("g("):
            i = sc.integer()
            sc.take(",")
            j = sc.integer()
            sc.take(",")
            n = sc.integer()
            sc.take(")")
            _check_arc(pair, i, j, pos, text)
            atoms.append((i, j, n))
        else:
            raise ExprParseError(sc.pos, "h(...) or g(...)", text)
        if not sc.try_take("."):
            break
    sc.done()
    return sgp.standard_form(pair, atoms)


def format_semigroupoid(e: sgp.SgpElement) -> str:
    if isinstance(e, sgp.HPower):
        return f"h({e.vertex})" if e.exponent == 1 else f"h({e.vertex})^{format_int(e.exponent)}"
    *interior, (i, j, n) = e.edges
    # interior offsets lie in [1, A]; only the free final offset can be too long to print
    return ".".join([f"g({a},{b},{m})" for a, b, m in interior] + [f"g({i},{j},{format_int(n)})"])


# -- inverse semigroup expressions --------------------------------------------

def parse_isg(text: str, pair: MatrixPair) -> ISgElement:
    sc = _Scanner(text)
    result = _parse_isg_product(sc, pair, text, 0)
    sc.done()
    return result


def _multiply(pair: MatrixPair, x: ISgElement, y: ISgElement) -> ISgElement:
    """The product, refused once its two path words hold more letters than
    the budget allows."""
    z = isg.multiply(pair, x, y)
    if not isinstance(z, Zero) and len(z.left.edges) + len(z.right.edges) > LETTER_BUDGET:
        raise DomainError(f"the element would hold more than {LETTER_BUDGET} letters, the letter budget")
    return z


def _parse_isg_product(sc: _Scanner, pair: MatrixPair, text: str, depth: int) -> ISgElement:
    result = _parse_isg_factor(sc, pair, text, depth)
    while sc.try_take("."):
        result = _multiply(pair, result, _parse_isg_factor(sc, pair, text, depth))
    return result


def _parse_isg_factor(sc: _Scanner, pair: MatrixPair, text: str, depth: int) -> ISgElement:
    pos = sc.pos
    if sc.try_take("("):
        if depth == NESTING_LIMIT:
            raise ExprParseError(pos, f"at most {NESTING_LIMIT} nested parentheses", text)
        elem = _parse_isg_product(sc, pair, text, depth + 1)
        sc.take(")")
    elif sc.try_take("s("):
        i = sc.integer()
        sc.take(",")
        j = sc.integer()
        sc.take(",")
        n = sc.integer()
        sc.take(")")
        _check_arc(pair, i, j, pos, text)
        elem = isg.generator_s(pair, i, j, n)
    elif sc.try_take("u("):
        v = sc.integer()
        sc.take(")")
        _check_vertex(pair, v, pos, text)
        elem = isg.unitary(pair, v)
    elif sc.try_take("q("):
        v = sc.integer()
        sc.take(")")
        _check_vertex(pair, v, pos, text)
        elem = isg.projection_q(pair, v)
    elif sc.try_take("0"):
        elem = ZERO
    else:
        raise ExprParseError(sc.pos, "s(...), u(...), q(...), 0 or (", text)
    while True:
        if sc.try_take("^"):
            elem = _isg_power(pair, elem, sc.integer())
        elif sc.try_take("*"):
            elem = isg.star(elem)
        else:
            return elem


def _isg_power(pair: MatrixPair, elem: ISgElement, k: int) -> ISgElement:
    """elem^k by repeated squaring over the bits of |k|, most significant
    first; elem^0 is its source projection and a negative power is a power
    of the adjoint.  A power past the letter budget is refused at the first
    square that exceeds it; an idempotent's squares never grow."""
    if isinstance(elem, Zero):
        return ZERO
    if k == 0:
        return isg.source_projection(pair, elem)
    base = elem if k > 0 else isg.star(elem)
    out = base
    for bit in bin(abs(k))[3:]:
        out = _multiply(pair, out, out)
        if bit == "1":
            out = _multiply(pair, out, base)
    return out


def format_isg(e: ISgElement) -> str:
    if isinstance(e, Zero):
        return "0"
    parts = [f"s({i},{j},{n})" for i, j, n in e.left.edges]
    if e.exponent:
        v = e.range_vertex
        parts.append(f"u({v})" if e.exponent == 1 else f"u({v})^{format_int(e.exponent)}")
    parts.extend(f"s({i},{j},{n})*" for i, j, n in reversed(e.right.edges))
    if not parts:
        return f"q({e.range_vertex})"
    return ".".join(parts)


# -- path literals -------------------------------------------------------------

def _parse_edge_list(sc: _Scanner, pair: MatrixPair, text: str) -> tuple:
    sc.take("[")
    edges = []
    if not sc.try_take("]"):
        while True:
            pos = sc.pos
            sc.take("(")
            i = sc.integer()
            sc.take(",")
            j = sc.integer()
            sc.take(",")
            n = sc.integer()
            sc.take(")")
            _check_arc(pair, i, j, pos, text)
            if not 1 <= n <= pair.a_at(i, j):
                raise SemanticError(
                    f"offset {n} out of range 1..{pair.a_at(i, j)} for edge ({i},{j})"
                    f" (at offset {pos} in {text!r})"
                )
            edges.append((i, j, n))
            if not sc.try_take(","):
                break
        sc.take("]")
    return tuple(edges)


def _finish_path(sc: _Scanner, pair: MatrixPair, text: str, edges: tuple) -> PathWord:
    if edges:
        base = edges[0][0]
        if sc.try_take("@"):
            declared = sc.integer()
            if declared != base:
                raise SemanticError(f"declared base {declared} contradicts first edge {edges[0]}")
        return isg.check_path_word(pair, PathWord(base, edges))
    if sc.try_take("@"):
        v = sc.integer()
        _check_vertex(pair, v, sc.pos, text)
        return PathWord(v)
    raise ExprParseError(sc.pos, "@vertex after an empty path literal", text)


def parse_finite_path(text: str, pair: MatrixPair) -> PathWord:
    sc = _Scanner(text)
    edges = _parse_edge_list(sc, pair, text)
    p = _finish_path(sc, pair, text, edges)
    sc.done()
    return p


def parse_periodic_path(text: str, pair: MatrixPair) -> EventuallyPeriodicPath:
    sc = _Scanner(text)
    pre_edges = _parse_edge_list(sc, pair, text)
    pre_base_override = None
    if sc.peek() == "@":
        sc.take("@")
        pre_base_override = sc.integer()
    sc.take("~")
    per_edges = _parse_edge_list(sc, pair, text)
    sc.done()
    if not per_edges:
        raise SemanticError("the periodic part must be nonempty")
    if pre_edges:
        pre = PathWord(pre_edges[0][0], pre_edges)
    else:
        base = pre_base_override if pre_base_override is not None else per_edges[0][0]
        pre = PathWord(base)
    per = PathWord(per_edges[0][0], per_edges)
    return periodic_point(pair, pre, per)


def is_periodic_literal(text: str) -> bool:
    return "~" in text


def format_finite_path(p: PathWord) -> str:
    if not p.edges:
        return f"[]@{p.base}"
    return "[" + ", ".join(f"({i},{j},{n})" for i, j, n in p.edges) + "]"


def format_periodic_path(x: EventuallyPeriodicPath) -> str:
    pre = (
        "[" + ", ".join(f"({i},{j},{n})" for i, j, n in x.preperiod.edges) + "]"
        if x.preperiod.edges
        else "[]"
    )
    per = "[" + ", ".join(f"({i},{j},{n})" for i, j, n in x.period.edges) + "]"
    return f"{pre} ~ {per}"


# -- abelian group expressions --------------------------------------------------

def parse_group(text: str) -> AbelianGroup:
    sc = _Scanner(text)
    free = 0
    cyclic: list[int] = []
    saw_zero = False
    while True:
        if sc.try_take("0"):
            saw_zero = True
        elif sc.try_take("Z"):
            if sc.try_take("^"):
                r = sc.integer()
                if r < 0:
                    raise SemanticError(f"free rank {r} must be nonnegative")
                free += r
            elif sc.try_take("/"):
                d = sc.integer()
                if d < 1:
                    raise SemanticError(f"cyclic order {d} must be positive")
                cyclic.append(d)
            else:
                free += 1
        else:
            raise ExprParseError(sc.pos, "Z, Z^r, Z/d or 0", text)
        if not sc.try_take("+"):
            break
    sc.done()
    if saw_zero and (free or cyclic):
        raise SemanticError("0 cannot be summed with other terms")
    return abelian_group(free, cyclic)


def format_group(grp: AbelianGroup) -> str:
    parts = []
    if grp.free_rank == 1:
        parts.append("Z")
    elif grp.free_rank > 1:
        parts.append(f"Z^{grp.free_rank}")
    parts.extend(f"Z/{format_int(d)}" for d in grp.torsion)
    return " + ".join(parts) if parts else "0"


# -- matrix files ----------------------------------------------------------------

def parse_matrix_file(data: bytes | str) -> MatrixPair:
    """Load {"N": int, "A": [[int]], "B": [[int]]}; the pair is validated."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ExprParseError(exc.start, "UTF-8 text", data.decode("utf-8", "replace")) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExprParseError(exc.pos, "well-formed JSON", text) from exc
    except RecursionError:  # arrays or objects nested past the interpreter's stack
        raise ExprParseError(0, "JSON nested less deeply than the interpreter's recursion limit", text) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ExprParseError(0, f"integers of at most {limit} digits", text) from None
    if not isinstance(doc, dict):
        raise StructuralError("matrix file must be a JSON object")
    missing = {"N", "A", "B"} - doc.keys()
    if missing:
        raise StructuralError(f"matrix file lacks keys: {sorted(missing)}")
    n, a, b = doc["N"], doc["A"], doc["B"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StructuralError(f"N must be a positive integer, got {n!r}")
    if not (
        isinstance(a, list) and isinstance(b, list) and all(isinstance(row, list) for row in a + b)
    ):
        raise StructuralError("A and B must be arrays of arrays")
    if len(a) != n or len(b) != n:
        raise StructuralError(f"A and B must have {n} rows")
    return MatrixPair.from_rows(a, b)


def parse_element(text: str, pair: MatrixPair):
    """Dispatch on the grammar: h/g atoms denote semigroupoid elements,
    everything else is a partial isometry expression."""
    if looks_like_semigroupoid(text):
        return parse_semigroupoid(text, pair)
    return parse_isg(text, pair)
