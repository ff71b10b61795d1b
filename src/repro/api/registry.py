"""Solver registry: one declarative catalogue of every subsidy solver.

Each solver is described by a :class:`SolverSpec` — its canonical name, the
problem it solves (SNE, all-or-nothing SNE, or SND), capability flags the
facade uses to coerce inputs, and the adapter callable that produces a
canonical :class:`repro.api.report.SolveReport`.

Solvers register themselves with the :func:`register_solver` decorator;
:mod:`repro.api.adapters` registers the eleven built-in solvers on import.
Lookup is by canonical name or alias, and unknown names raise
:class:`UnknownSolverError` with close-match suggestions.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple


class UnknownSolverError(KeyError):
    """Raised when a solver name is not in the registry."""

    def __init__(self, name: str, known: List[str]):
        self.name = name
        self.known = known
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        msg = f"unknown solver {name!r}; known solvers: {', '.join(known)}"
        if suggestions:
            msg += f" (did you mean {' or '.join(repr(s) for s in suggestions)}?)"
        super().__init__(msg)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


@dataclass(frozen=True)
class SolverSpec:
    """Declarative description of one registered solver."""

    #: canonical registry name, e.g. ``"sne-lp3"``
    name: str
    #: adapter ``(instance, **opts) -> SolveReport``
    fn: Callable[..., object]
    #: problem family: ``"sne"``, ``"aon-sne"`` or ``"snd"``
    problem: str
    #: one-line human description (shown by ``repro-experiments solvers``)
    description: str
    #: only defined on broadcast games (vs. general network design games)
    broadcast_only: bool = True
    #: needs an explicit spanning-tree target state (vs. taking a whole game)
    requires_tree_state: bool = False
    #: proves optimality of the returned subsidies (vs. heuristic/upper bound)
    exact: bool = True
    #: alternative lookup names
    aliases: Tuple[str, ...] = field(default=())
    #: algorithm version; part of the result-cache key, so bump it whenever
    #: the solver's output for a fixed instance can change
    version: str = "1"
    #: keyword options the adapter takes after the instance (``None``: any,
    #: through ``**opts``); read off its signature once, at registration
    options: Optional[FrozenSet[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = list(inspect.signature(self.fn).parameters.values())[1:]
        names: Optional[FrozenSet[str]] = frozenset(
            p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        if any(p.kind is p.VAR_KEYWORD for p in params):
            names = None
        object.__setattr__(self, "options", names)

    def check_options(self, opts: Mapping[str, Any]) -> None:
        """Raise ``TypeError`` naming every key of ``opts`` the adapter does
        not take.

        Callers that key a result cache on the raw options run this before
        the lookup, so a hit cannot answer for options a miss would refuse.
        """
        if self.options is None:
            return
        unknown = sorted(str(k) for k in opts if k not in self.options)
        if unknown:
            raise TypeError(
                f"solver {self.name!r} does not take option(s) "
                f"{', '.join(map(repr, unknown))}; it takes: "
                f"{', '.join(sorted(self.options)) or 'none'}"
            )


_REGISTRY: Dict[str, SolverSpec] = {}
_ALIASES: Dict[str, str] = {}

PROBLEMS = ("sne", "aon-sne", "snd")


def register_solver(
    name: str,
    *,
    problem: str,
    description: str,
    broadcast_only: bool = True,
    requires_tree_state: bool = False,
    exact: bool = True,
    aliases: Tuple[str, ...] = (),
    version: str = "1",
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Decorator registering an adapter function under ``name``.

    The decorated function keeps working as a plain callable; registration
    only records it in the catalogue.  Re-registering a taken name (or
    alias) raises ``ValueError`` — names are a public API surface.

    ``version`` feeds the :mod:`repro.runtime` result cache: cached reports
    are keyed by (instance, solver name, ``version``, options), so bumping
    it is how a solver declares "my outputs changed" and invalidates every
    previously cached cell.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}, got {problem!r}")

    def decorator(fn: Callable[..., object]) -> Callable[..., object]:
        for key in (name, *aliases):
            if key in _REGISTRY or key in _ALIASES:
                raise ValueError(f"solver name {key!r} is already registered")
        spec = SolverSpec(
            name=name,
            fn=fn,
            problem=problem,
            description=description,
            broadcast_only=broadcast_only,
            requires_tree_state=requires_tree_state,
            exact=exact,
            aliases=tuple(aliases),
            version=version,
        )
        _REGISTRY[name] = spec
        for alias in aliases:
            _ALIASES[alias] = name
        return fn

    return decorator


def get_solver(name: str) -> SolverSpec:
    """Look up a solver by canonical name or alias."""
    if not isinstance(name, str):
        raise TypeError(f"solver name must be a string, got {type(name).__name__}")
    key = _ALIASES.get(name, name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownSolverError(name, solver_names()) from None


def list_solvers(problem: Optional[str] = None) -> List[SolverSpec]:
    """All registered solvers (optionally filtered by problem family)."""
    specs = sorted(_REGISTRY.values(), key=lambda s: (s.problem, s.name))
    if problem is not None:
        specs = [s for s in specs if s.problem == problem]
    return specs


def solver_names(include_aliases: bool = False) -> List[str]:
    """Canonical names of all registered solvers."""
    names = sorted(_REGISTRY)
    if include_aliases:
        names += sorted(_ALIASES)
    return names
