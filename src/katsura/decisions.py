"""Top-level structure verdicts for a pair (A, B).

Each verdict is the theorem it rests on, read off the graph facts and the
fixed-point escape.  A Yes or No cites its rule; Unknown comes only from a
missing condition (E), which the simplicity, essential principality and
Hausdorffness criteria assume.  A has no zero row, so every path runs
into a cyclic strongly connected component (one with an internal arc).

- Minimal iff exactly one component is cyclic.  Open invariant sets
  match hereditary saturated vertex sets H: U gives {v : Z(v) in U}, and
  H gives the paths that enter H.  With one cyclic component C, a
  nonempty hereditary H holds C, and saturation adds every other vertex,
  whose arcs all lead towards C.  With a second one, C', the vertices
  that cannot reach C' form a proper nonempty hereditary saturated set.
- Locally contracting iff condition (L).  If L holds, an open set holds a
  cylinder Z(mu), and mu extends to some mu nu ending on a cycle c with
  an exit.  The bisection of s_{mu nu c} s_{mu nu}* maps the clopen
  Z(mu nu) onto Z(mu nu c), a proper subset because of the exit; only
  s-words are used, so B plays no part.  If L fails, each vertex of an
  exit-free cycle emits one edge, so its cylinder is a single point, and
  no bisection maps a singleton properly into itself.
- Under condition (E) the groupoid is Hausdorff and amenable, so the
  algebra is simple iff the action is minimal and topologically free
  (Brown-Clark-Farthing-Sims 2014), and a simple algebra with a locally
  contracting groupoid is purely infinite (Anantharaman-Delaroche 1997).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import matrices
from .errors import DomainError, StructuralError, format_int
from .ktheory import KTheoryResult, k_groups
from .matrices import MatrixPair


@dataclass(frozen=True)
class Reason:
    tag: str
    text: str


@dataclass(frozen=True)
class Verdict:
    value: str  # "yes" | "no" | "unknown"
    reasons: tuple[Reason, ...]

    def __post_init__(self):
        if self.value not in ("yes", "no", "unknown"):
            raise StructuralError(f"bad verdict value {self.value!r}")
        if not self.reasons:
            raise StructuralError("a verdict must cite at least one reason")

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"


def _yes(tag: str, text: str) -> Verdict:
    return Verdict("yes", (Reason(tag, text),))


def _no(tag: str, text: str) -> Verdict:
    return Verdict("no", (Reason(tag, text),))


def _unknown(tag: str, text: str) -> Verdict:
    return Verdict("unknown", (Reason(tag, text),))


def _bool_verdict(flag: bool, name: str, yes_text: str, no_text: str) -> Verdict:
    return _yes(name, yes_text) if flag else _no(f"not-{name}", no_text)


def _coprime_basis(numbers) -> list[int]:
    """Pairwise coprime integers > 1 over which every nonzero number factors.

    Repeated gcd splitting: a number sharing a factor g with a basis element
    b replaces b by b/g, g and itself by x/g.  The product of everything
    pending drops by g at each split, so it terminates; nothing is factored
    into primes.  (Bernstein 2005 computes the same basis in near-linear
    time.)
    """
    basis: list[int] = []
    pending = sorted({abs(x) for x in numbers})
    while pending:
        x = pending.pop()
        if x <= 1:
            continue
        for k, b in enumerate(basis):
            g = gcd(x, b)
            if g > 1:
                del basis[k]
                pending += (b // g, g, x // g)
                break
        else:
            basis.append(x)
    return basis


def _valuation(x: int, q: int) -> int:
    """Exponent of q in a nonzero x that factors over a coprime basis holding q."""
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def fixed_point_escape(pair: MatrixPair, facts: matrices.GraphFacts) -> Verdict:
    """Exact, under condition (E): Yes iff no power u(w)^l, l != 0, of a
    vertex unitary fixes a whole cylinder.

    u(w)^l fixes a path from w iff its integrality trace l * prod B/A stays
    integral along the path.  Under (E) no entry on the support is zero;
    without it the pair is refused.  For each element q of a coprime basis
    of those entries, the exponent of q in the trace moves by
    v_q(B[i][j]) - v_q(A[i][j]) along arc (i, j).  A vertex that reaches a
    closed walk of negative q-weight escapes: pumping that walk drives any
    integer trace to a fraction.  A vertex w that reaches no such walk for
    any q has finite least walk weights d_q(w) <= 0, and u(w)^l with
    l = prod q^(-d_q(w)) fixes every path from w.  Bellman-Ford from all
    vertices at once gives d_q (0 when no q-weight is negative, so that q
    is skipped); an arc that still relaxes after N rounds starts in a
    component that drains.  One pass over the components, sinks first,
    marks as escaping each that drains or has an arc into an escaping one.
    """
    if not facts.condition_e:
        raise DomainError("the fixed-point escape assumes condition (E): B is zero on a support arc")
    arcs = [(i, j) for i, js in enumerate(pair.sections, 1) for j in js]
    draining: set[int] = set()
    least: list[tuple[int, dict[int, int]]] = []
    for q in _coprime_basis(x for i, j in arcs for x in (pair.a_at(i, j), pair.b_at(i, j))):
        weighted = [
            (i, j, _valuation(pair.b_at(i, j), q) - _valuation(pair.a_at(i, j), q))
            for i, j in arcs
        ]
        if min(w for i, j, w in weighted) >= 0:
            continue
        d = dict.fromkeys(pair.vertices, 0)
        for _ in range(pair.n):
            changed = False
            for i, j, w in weighted:
                if d[j] + w < d[i]:
                    d[i] = d[j] + w
                    changed = True
            if not changed:
                break
        draining.update(i for i, j, w in weighted if d[j] + w < d[i])
        least.append((q, d))
    escaping: set[int] = set()
    for members in facts.components:
        if any(v in draining or not escaping.isdisjoint(pair.sections[v - 1]) for v in members):
            escaping.update(members)
    stuck = [v for v in pair.vertices if v not in escaping]
    if not stuck:
        return _yes(
            "valuation-escape",
            "every vertex reaches a closed walk along which some coprime factor's"
            " exponent in the product B/A is negative",
        )
    w = stuck[0]
    l = 1
    for q, d in least:
        l *= q ** -d[w]
    return _no("fixed-cylinder", f"u({w})^{format_int(l)} fixes the whole cylinder of vertex {w}")


def _freeness(facts: matrices.GraphFacts, escape: Verdict | None) -> Verdict:
    """Exact: the action is topologically free iff condition (L), condition
    (E) and the fixed-point escape condition hold."""
    if not facts.condition_l:
        return _no("condition-L-fails", "an exit-free cycle makes its fixed point isolated")
    if not facts.condition_e:
        return _no(
            "condition-E-fails",
            "a vanishing B-entry on the support yields a fixed cylinder",
        )
    if escape.is_no:
        return Verdict("no", escape.reasons)
    return Verdict(
        "yes",
        (
            Reason("condition-L", "every cycle has an exit"),
            Reason("condition-E", "B nonzero on the support"),
        )
        + escape.reasons,
    )


_FIXED_POINT_READING = Reason(
    "unitary-fixed-points",
    "fixed points examined are those of vertex unitary powers and their"
    " cycle conjugates; general isotropy reduces to these",
)


def _simplicity(facts: matrices.GraphFacts, minimal: Verdict, top_free: Verdict) -> Verdict:
    """Under condition (E), simple iff minimal and topologically free; each
    No cites the first verdict that fails.  Without (E) the
    characterization is unavailable."""
    if not facts.condition_e:
        requires_e = Reason("requires-condition-E", "the simplicity characterization assumes B nonzero on the support")
        return Verdict("unknown", (requires_e, _FIXED_POINT_READING))
    for v in (minimal, top_free):
        if v.is_no:
            return Verdict("no", v.reasons + (_FIXED_POINT_READING,))
    return Verdict("yes", minimal.reasons + top_free.reasons + (_FIXED_POINT_READING,))


def _pure_infiniteness(simple: Verdict) -> Verdict:
    if simple.is_yes:
        contracting = Reason("locally-contracting", "condition L makes the groupoid locally contracting")
        return Verdict("yes", simple.reasons + (contracting,))
    if simple.is_no:
        return _no("not-simple", "a non-simple algebra is not purely infinite simple")
    return Verdict("unknown", simple.reasons)


@dataclass(frozen=True)
class AnalysisReport:
    condition0: Verdict
    condition_e: Verdict
    irreducible: Verdict
    condition_l: Verdict
    condition_k: Verdict
    minimal: Verdict
    topologically_free: Verdict
    essentially_principal: Verdict
    hausdorff: Verdict
    simple: Verdict
    locally_contracting: Verdict
    purely_infinite_simple: Verdict
    nuclear: Verdict
    etale: Verdict
    kgroups: KTheoryResult
    notes: tuple[str, ...] = ()

    def verdict_fields(self) -> dict[str, Verdict]:
        return {
            name: value
            for name, value in self.__dict__.items()
            if isinstance(value, Verdict)
        }


def _check_consistency(report: AnalysisReport) -> None:
    if report.simple.is_yes:
        assert report.minimal.is_yes and report.condition_l.is_yes
    if report.purely_infinite_simple.is_yes:
        assert report.simple.is_yes
    if report.topologically_free.is_yes:
        assert report.essentially_principal.is_yes


def analyze(pair: MatrixPair) -> AnalysisReport:
    """Full report on the pair, the one source of its verdicts.  Each graph
    fact comes from one pass; the escape verdict is computed only under
    conditions (E) and (L), the only place a verdict reads it."""
    facts = matrices.graph_facts(pair)
    escape = fixed_point_escape(pair, facts) if facts.condition_e and facts.condition_l else None
    minimal = _bool_verdict(
        facts.cyclic_components == 1,
        "one-cyclic-component",
        "exactly one strongly connected component carries a cycle",
        f"{facts.cyclic_components} strongly connected components carry cycles",
    )
    condition_l = _bool_verdict(
        facts.condition_l,
        "condition-L",
        "every cycle of the edge graph has an exit",
        "some cycle of the edge graph is exit-free",
    )
    top_free = _freeness(facts, escape)
    simple = _simplicity(facts, minimal, top_free)
    if facts.condition_e:
        ess_principal = top_free
        hausdorff = _yes("condition-E", "all elements epic, so germs separate")
    else:
        ess_principal = _unknown(
            "requires-condition-E",
            "the germ-level equivalence is only available when B is nonzero on the support",
        )
        hausdorff = _unknown(
            "requires-condition-E", "Hausdorffness is only certified when condition (E) holds"
        )
    notes = []
    if len(pair.zero_b_rows) == pair.n:
        notes.append(
            "B = 0: the algebra is the Cuntz-Krieger algebra of A; "
            "the vertex unitaries collapse to projections"
        )
    report = AnalysisReport(
        condition0=_yes("condition-0", "no zero row in A and B supported inside A"),
        condition_e=_bool_verdict(
            facts.condition_e,
            "condition-E",
            "B is nonzero on every support arc",
            "B vanishes on some support arc",
        ),
        irreducible=_bool_verdict(
            facts.irreducible,
            "irreducible",
            "the support digraph is strongly connected",
            "the support digraph is not strongly connected",
        ),
        condition_l=condition_l,
        condition_k=_bool_verdict(
            facts.condition_k,
            "condition-K",
            "every cycle vertex bases at least two cycles",
            "some cycle vertex bases exactly one cycle",
        ),
        minimal=minimal,
        topologically_free=top_free,
        essentially_principal=ess_principal,
        hausdorff=hausdorff,
        simple=simple,
        locally_contracting=condition_l,
        purely_infinite_simple=_pure_infiniteness(simple),
        nuclear=_yes("always", "the algebra is nuclear for every admissible pair"),
        etale=_yes("always", "the germ groupoid is etale with second countable unit space"),
        kgroups=k_groups(pair),
        notes=tuple(notes),
    )
    _check_consistency(report)
    return report
