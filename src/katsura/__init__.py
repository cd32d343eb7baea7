"""Exact combinatorial toolkit for the two-matrix graph algebras O_{A,B}.

The package manipulates the combinatorial skeleton of these algebras: the
path semigroupoid and its rewriting normal forms, the inverse semigroup of
partial isometries, the one-sided path space it acts on, decision
procedures for minimality / topological freeness / simplicity / pure
infiniteness, and exact K-theory including realization of prescribed
K-groups.

`import katsura` loads none of its modules: each name of `__all__`, and each
module named as an attribute (`katsura.ktheory`), is imported on first access
(PEP 562), so a caller pays only for what it uses.
"""

# the module that defines each public name
_SOURCES = {
    "decisions": ("AnalysisReport", "Verdict", "analyze"),
    "errors": ("KatsuraError",),
    "invsemigroup": ("ISgElement", "PathWord", "Triple", "ZERO", "multiply", "star"),
    "ktheory": ("AbelianGroup", "KTheoryResult", "k_groups", "realize"),
    "matrices": ("MatrixPair",),
    "pathspace": ("EventuallyPeriodicPath", "act_on_prefix", "generate_fixed_point"),
    "semigroupoid": ("GWord", "HPower", "compose", "lcm", "standard_form"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A layer module by its name, or a public name imported from its module
    and kept in this namespace, so that later lookups never come back here."""
    module = name if name in _SOURCES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binds the module in this namespace; unlike importlib, seen by -X importtime
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
