"""Exact combinatorial toolkit for the two-matrix graph algebras O_{A,B}.

The package manipulates the combinatorial skeleton of these algebras: the
path semigroupoid and its rewriting normal forms, the inverse semigroup of
partial isometries, the one-sided path space it acts on, decision
procedures for minimality / topological freeness / simplicity / pure
infiniteness, and exact K-theory including realization of prescribed
K-groups.
"""

from .decisions import AnalysisReport, Verdict, analyze
from .errors import KatsuraError
from .invsemigroup import ISgElement, PathWord, Triple, ZERO, multiply, star
from .ktheory import AbelianGroup, KTheoryResult, k_groups, realize
from .matrices import MatrixPair
from .pathspace import EventuallyPeriodicPath, act_on_prefix, generate_fixed_point
from .semigroupoid import GWord, HPower, compose, lcm, standard_form

__all__ = [
    "AbelianGroup",
    "AnalysisReport",
    "EventuallyPeriodicPath",
    "GWord",
    "HPower",
    "ISgElement",
    "KTheoryResult",
    "KatsuraError",
    "MatrixPair",
    "PathWord",
    "Triple",
    "Verdict",
    "ZERO",
    "act_on_prefix",
    "analyze",
    "compose",
    "generate_fixed_point",
    "k_groups",
    "lcm",
    "multiply",
    "realize",
    "standard_form",
    "star",
]
