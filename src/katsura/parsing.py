"""Text grammars shared by the command-line surface.

Semigroupoid elements:   h(i), h(i)^t, g(i,j,n)        joined by `.`
Partial isometries:      s(i,j,n), u(i), u(i)^t, q(i), 0; postfix `*` on an
                         atom or parenthesized group;   joined by `.`
Paths:                   [ (i,j,n), ... ]   optionally `@v`, which must be
                         the first vertex; required on an empty `[]`
Eventually periodic:     PRE ~ PER          with PRE, PER path literals; an
                         empty PRE without `@v` sits at the start of PER
Abelian groups:          0 | Z | Z^r | Z/d  joined by `+`

Whitespace is spaces and tabs, allowed between any two tokens.  In the
product loops of the s/u/q, g/h and path grammars, one pattern match reads
a plain factor (an atom with at most its one usual postfix) and the
separator after it; any other factor, or one that fails a check, is read
token by token from the same offset, which gives every error.  The reader
checks every vertex, arc and offset of a text against the pair; the
constructors downstream check only their own invariants.  A product is
folded factor by factor as it is read, so parsing takes time linear in the
letters read and produced.  Loading a pair file needs only `errors` and
`matrices`: each grammar imports the layers it builds into, and compiles
its patterns, when it first reads a text.

Everything parses to normalized values, so `format_x(parse_x(text))` is the
canonical spelling and round-trips.
"""

from __future__ import annotations

import json
import re
import sys
from typing import TYPE_CHECKING

from .errors import (
    ExprParseError,
    SemanticError,
    StructuralError,
    excerpt,
    format_int,
)
from .matrices import Edge, MatrixPair

if TYPE_CHECKING:
    from . import semigroupoid as sgp
    from .invsemigroup import Factor, ISgElement, PathWord
    from .ktheory import AbelianGroup
    from .pathspace import EventuallyPeriodicPath

# the package, whose layers each grammar reads on first use (`katsura.__init__`)
_package = sys.modules[__package__]


# Parenthesized groups nest at most this deep; the expression parser
# recurses once per level, so a deeper text would exhaust the stack.
NESTING_LIMIT = 100


class _Pattern:
    """A regular expression compiled at its first match, not at import.  That
    match puts the compiled pattern in place of this one among the module's
    globals, so that every later match costs what a compiled pattern's does."""

    def __init__(self, source: str):
        self.source = source

    def match(self, text: str, pos: int = 0) -> re.Match | None:
        compiled = re.compile(self.source)
        globals().update([(name, compiled) for name, value in globals().items() if value is self])
        return compiled.match(text, pos)


_WS = _Pattern("[ \t]*")
_INTEGER = _Pattern("[+-]?[0-9]+")


class _Atom:
    """One atom of a grammar, such as s(i,j,n): literal tokens and integer
    slots (`int`).  `source` spells the whole atom as a pattern; `power`
    adds an optional `^t` suffix to it."""

    def __init__(self, *tokens, power: bool = False):
        self.head = tokens[0]
        self.tokens = tokens
        integer = "[ \t]*([+-]?[0-9]+)"
        body = "".join(integer if tok is int else "[ \t]*" + re.escape(tok) for tok in tokens[1:])
        suffix = f"(?:[ \t]*\\^{integer})?" if power else ""
        self.source = re.escape(self.head) + body + suffix


def _loop(separator: str, closers: str, *atoms: str) -> _Pattern:
    """The pattern of one plain factor in a product loop: whitespace, one of
    the `atoms` sources, whitespace, and then `separator` (the last group)
    or, left unread, one of `closers`.  Any other follower, such as a second
    postfix, fails the match: no integer can give up its last digits to make
    it match, since a digit is neither a separator nor a closer."""
    return _Pattern(f"[ \t]*(?:{'|'.join(atoms)})[ \t]*(?:({re.escape(separator)})|(?={closers}))")


class _Scanner:
    """A cursor over one text, read token by token.  Whitespace is spaces
    and tabs, and may stand between any two tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        if self.text.startswith((" ", "\t"), self.pos):
            self.pos = _WS.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]

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
        m = _INTEGER.match(self.text, self.pos)
        if m is None:
            raise ExprParseError(self.pos, "an integer", self.text)
        try:
            value = int(m.group())
        except ValueError:  # past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise ExprParseError(self.pos, f"an integer of at most {limit} digits", self.text) from None
        self.pos = m.end()
        return value

    def atom(self, atom: _Atom, required: bool = False) -> list[int] | None:
        """The integers of `atom` if it starts here; None if its head is
        absent and it is not required."""
        self.skip_ws()
        if not self.text.startswith(atom.head, self.pos):
            if required:
                raise ExprParseError(self.pos, repr(atom.head), self.text)
            return None
        self.pos += len(atom.head)
        values = []
        for tok in atom.tokens[1:]:
            if tok is int:
                values.append(self.integer())
            else:
                self.take(tok)
        return values

    def power(self, default: int) -> int:
        """A `^t` suffix here, or `default` without one."""
        return self.integer() if self.try_take("^") else default

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprParseError(self.pos, "end of input", self.text)


def _check_vertex(pair: MatrixPair, v: int, pos: int, text: str) -> None:
    if not 1 <= v <= pair.n:
        raise SemanticError(f"vertex {v} out of range 1..{pair.n} (at offset {pos} in {excerpt(text, pos)!r})")


def _check_arc(pair: MatrixPair, i: int, j: int, pos: int, text: str) -> None:
    _check_vertex(pair, i, pos, text)
    _check_vertex(pair, j, pos, text)
    if pair.a_at(i, j) == 0:
        raise SemanticError(f"({i},{j}) is not a support arc of A (at offset {pos} in {excerpt(text, pos)!r})")


def _arc(pair: MatrixPair, i: int, j: int) -> int:
    """A[i][j] if i and j are vertices of the pair, else 0."""
    return pair.a[i - 1][j - 1] if 0 < i <= pair.n and 0 < j <= pair.n else 0


_SEMIGROUPOID_HEAD = _Pattern("[ \t]*[hg][ \t]*\\(")


def looks_like_semigroupoid(text: str) -> bool:
    return _SEMIGROUPOID_HEAD.match(text) is not None


# -- semigroupoid expressions -------------------------------------------------

_H = _Atom("h(", int, ")", power=True)
_G = _Atom("g(", int, ",", int, ",", int, ")")
_SEMIGROUPOID_LOOP = _loop(".", "\\Z", _H.source, _G.source)


def parse_semigroupoid(text: str, pair: MatrixPair) -> sgp.SgpElement:
    sgp = _package.semigroupoid
    sc = _Scanner(text)
    atoms: list[sgp.RawAtom] = []
    more = True
    while more:
        m = _SEMIGROUPOID_LOOP.match(text, sc.pos)
        atom = None
        if m is not None:
            h, t, i, j, n, more = m.groups()
            try:
                if h is not None:
                    v = int(h)
                    if 0 < v <= pair.n:
                        atom = sgp.HAtom(v, 1 if t is None else int(t))
                else:
                    i, j = int(i), int(j)
                    if _arc(pair, i, j):
                        atom = (i, j, int(n))
            except ValueError:  # past the digit limit, which the reader names
                pass
        if atom is not None:
            sc.pos = m.end()
        else:  # read token by token from the same offset
            pos = sc.pos
            if (h := sc.atom(_H)) is not None:
                _check_vertex(pair, h[0], pos, text)
                atom = sgp.HAtom(h[0], sc.power(1))
            elif (g := sc.atom(_G)) is not None:
                i, j, n = g
                _check_arc(pair, i, j, pos, text)
                atom = (i, j, n)
            else:
                raise ExprParseError(sc.pos, "h(...) or g(...)", text)
            more = sc.try_take(".")
        atoms.append(atom)
    sc.done()
    return sgp.standard_form(pair, atoms)


def format_semigroupoid(e: sgp.SgpElement) -> str:
    if isinstance(e, _package.semigroupoid.HPower):
        return f"h({e.vertex})" if e.exponent == 1 else f"h({e.vertex})^{format_int(e.exponent)}"
    *interior, (i, j, n) = e.edges
    # interior offsets lie in [1, A]; only the free final offset can be too long to print
    return ".".join([f"g({a},{b},{m})" for a, b, m in interior] + [f"g({i},{j},{format_int(n)})"])


# -- inverse semigroup expressions --------------------------------------------

_S = _Atom("s(", int, ",", int, ",", int, ")")
_U = _Atom("u(", int, ")", power=True)
_Q = _Atom("q(", int, ")")
_ISG_LOOP = _loop(".", "\\)|\\Z", _S.source + "(?:[ \t]*(\\*))?", _U.source, _Q.source)


def parse_isg(text: str, pair: MatrixPair) -> ISgElement:
    """The product a text spells, in time linear in its letters: factors are
    folded into one product as they are read, and path words are built once,
    at the end."""
    sc = _Scanner(text)
    result = _parse_isg_product(sc, pair, text, 0)
    sc.done()
    return _package.invsemigroup._element(pair, result)


def _parse_isg_product(sc: _Scanner, pair: MatrixPair, text: str, depth: int) -> Factor:
    isg = _package.invsemigroup
    product = None
    more = True
    while more:
        m = _ISG_LOOP.match(text, sc.pos)
        plain = None  # the factor if the loop pattern reads it; None is not the zero here
        if m is not None:
            i, j, n, star, u, t, q, more = m.groups()
            try:
                if i is not None:
                    i, j = int(i), int(j)
                    if _arc(pair, i, j):
                        plain = isg._s_factor(pair, i, j, int(n))
                        if star:
                            plain = isg._star_factor(plain)
                else:
                    v = int(q if u is None else u)
                    if 0 < v <= pair.n:
                        plain = isg._unitary_factor(v, 0 if u is None else 1 if t is None else int(t))
            except ValueError:  # past the digit limit, which the reader names
                pass
        if plain is not None:
            factor = plain
            sc.pos = m.end()
        else:  # read token by token from the same offset
            factor = _parse_isg_factor(sc, pair, text, depth)
            more = sc.try_take(".")
        if product is None:
            product = isg._Product(pair, factor)
        else:
            product.fold(factor)
    return product.factor()


def _parse_isg_factor(sc: _Scanner, pair: MatrixPair, text: str, depth: int) -> Factor:
    isg = _package.invsemigroup
    pos = sc.pos
    if (s := sc.atom(_S)) is not None:
        i, j, n = s
        _check_arc(pair, i, j, pos, text)
        factor = isg._s_factor(pair, i, j, n)
    elif (u := sc.atom(_U)) is not None:
        _check_vertex(pair, u[0], pos, text)
        factor = isg._unitary_factor(u[0], sc.power(1))
    elif (q := sc.atom(_Q)) is not None:
        _check_vertex(pair, q[0], pos, text)
        factor = isg._unitary_factor(q[0], 0)
    elif sc.try_take("("):
        if depth == NESTING_LIMIT:
            raise ExprParseError(pos, f"at most {NESTING_LIMIT} nested parentheses", text)
        factor = _parse_isg_product(sc, pair, text, depth + 1)
        sc.take(")")
    elif sc.try_take("0"):
        factor = None
    else:
        raise ExprParseError(sc.pos, "s(...), u(...), q(...), 0 or (", text)
    while True:
        c = sc.peek()
        if c == "*":
            sc.pos += 1
            factor = isg._star_factor(factor)
        elif c == "^":
            sc.pos += 1
            factor = isg._power(pair, factor, sc.integer())
        else:
            return factor


def format_isg(e: ISgElement) -> str:
    if isinstance(e, _package.invsemigroup.Zero):
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

_EDGE = _Atom("(", int, ",", int, ",", int, ")")
_EDGE_LOOP = _loop(",", "\\]", _EDGE.source)


def _parse_edge_list(sc: _Scanner, pair: MatrixPair, text: str) -> tuple:
    sc.take("[")
    if sc.try_take("]"):
        return ()
    edges = []
    more = True
    while more:
        m = _EDGE_LOOP.match(text, sc.pos)
        edge = None
        if m is not None:
            i, j, n, more = m.groups()
            try:
                i, j, n = int(i), int(j), int(n)
                if 0 < n <= _arc(pair, i, j):
                    edge = (i, j, n)
            except ValueError:  # past the digit limit, which the reader names
                pass
        if edge is not None:
            sc.pos = m.end()
        else:  # read token by token from the same offset
            pos = sc.pos
            i, j, n = sc.atom(_EDGE, required=True)
            _check_arc(pair, i, j, pos, text)
            if not 1 <= n <= pair.a_at(i, j):
                raise SemanticError(
                    f"offset {n} out of range 1..{pair.a_at(i, j)} for edge ({i},{j})"
                    f" (at offset {pos} in {excerpt(text, pos)!r})"
                )
            edge = (i, j, n)
            more = sc.try_take(",")
        edges.append(edge)
    sc.take("]")
    return tuple(edges)


def _finish_path(sc: _Scanner, pair: MatrixPair, text: str, edges: tuple) -> PathWord | None:
    """The path word of a literal's edges and its `@v` suffix, which may
    restate the first edge's source and must name the vertex of an empty
    literal; None for an empty literal with no suffix."""
    PathWord = _package.invsemigroup.PathWord
    if edges:
        base = edges[0][0]
        if sc.try_take("@"):
            declared = sc.integer()
            if declared != base:
                raise SemanticError(f"declared base {declared} contradicts first edge {edges[0]}")
        return PathWord(base, edges)
    if sc.try_take("@"):
        v = sc.integer()
        _check_vertex(pair, v, sc.pos, text)
        return PathWord(v)
    return None


def parse_finite_path(text: str, pair: MatrixPair) -> PathWord:
    sc = _Scanner(text)
    p = _finish_path(sc, pair, text, _parse_edge_list(sc, pair, text))
    if p is None:
        raise ExprParseError(sc.pos, "@vertex after an empty path literal", text)
    sc.done()
    return p


def parse_periodic_path(text: str, pair: MatrixPair) -> EventuallyPeriodicPath:
    """PRE ~ PER; an empty PRE with no `@v` sits at the base of PER."""
    sc = _Scanner(text)
    pre = _finish_path(sc, pair, text, _parse_edge_list(sc, pair, text))
    sc.take("~")
    per_edges = _parse_edge_list(sc, pair, text)
    sc.done()
    if not per_edges:
        raise SemanticError("the periodic part must be nonempty")
    PathWord = _package.invsemigroup.PathWord
    per = PathWord(per_edges[0][0], per_edges)
    return _package.pathspace.eventually_periodic(PathWord(per.base) if pre is None else pre, per)


def is_periodic_literal(text: str) -> bool:
    return "~" in text


def _edge_list(edges: tuple[Edge, ...]) -> str:
    return "[" + ", ".join(f"({i},{j},{n})" for i, j, n in edges) + "]"


def format_finite_path(p: PathWord) -> str:
    return _edge_list(p.edges) if p.edges else f"[]@{p.base}"


def format_periodic_path(x: EventuallyPeriodicPath) -> str:
    return f"{_edge_list(x.preperiod.edges)} ~ {_edge_list(x.period.edges)}"


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
    return _package.ktheory.abelian_group(free, cyclic)


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
