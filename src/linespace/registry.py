"""The check registry: one ordered table of every check, and the report type.

``CHECKS`` lists the 6 axiom checks, the 17 theorems and the 8
derived-geometry (vy) checks in the order every battery runs and reports
them.  Each entry holds the check's name, its display name, its layer, whether
it needs the point/plane model, its checker and its counterexample function.
The checkers register themselves with ``@registered``, so a module's checks
enter the table in the order they are defined there.  Each check module
imports the one below it, ``battery``, ``model_theorems``, ``theorems``,
``axioms``, so the axiom checks come first; a test pins the whole order.
Whatever reads the table here first imports the modules of the layers it
reads, the top of that chain for "theorems" and "vy", so ``CHECKS`` lists
every check even when read first, and ``check_all`` loads no theorems.

A counterexample function takes the structure, the model when the check
needs one, and the labels its counterexample names as keyword arguments,
absorbing with ``**_`` the fields it derives; it returns the whole
counterexample, from the definitions and no kernel table but the element
set, or None when that configuration does not violate the claim.  Each
checker calls it where its kernel flags a violation.  ``run_checks`` runs
the checks of some layers, deriving the model once when one of them needs
it, and ``replay`` runs a failing report's function again on the report's
own fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .core import LAYERS, IncidenceStructure, LabelInconsistencyError, MissingElementError
from .sigma import NotTwoClassesError

if TYPE_CHECKING:
    from .labeling import GeometryModel

PASS = "pass"
FAIL = "fail"
DEPENDENCY_UNMET = "dependency_unmet"

# the module whose import loads the checks of each layer
_MODULE_OF = {"axioms": "axioms", "theorems": "battery", "vy": "battery"}


@dataclass(frozen=True)
class CheckReport:
    """Structured outcome of one axiom or theorem check."""

    check_name: str
    status: str
    counterexample: Optional[dict] = None
    witness_sample: Optional[dict] = None
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        out = {"check_name": self.check_name, "passed": self.passed, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.witness_sample is not None:
            out["witness_sample"] = self.witness_sample
        out["stats"] = dict(self.stats)
        return out


@dataclass(frozen=True)
class Check:
    """One entry of the table.

    ``checker`` takes ``(s)``, or ``(s, m)`` when ``needs_model``, and
    ``counterexample`` takes the same and the counterexample's fields.
    """

    name: str
    display: str
    layer: str
    needs_model: bool
    checker: Callable[..., CheckReport]
    counterexample: Callable[..., Optional[dict]]


_TABLE: list[Check] = []


def _checks(*layers: str) -> list[Check]:
    """The table, once the modules of ``layers`` are loaded.  Called while
    one of them loads, it returns at once, with that module's checks so far."""
    for layer in layers:
        __import__(f"{__package__}.{_MODULE_OF[layer]}")  # -X importtime reports this load
    return _TABLE


def __getattr__(name: str):
    if name == "CHECKS":
        return _checks(*LAYERS)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def registered(layer: str, counterexample, *, name=None, display=None, model=False):
    """Decorator that appends its checker and ``counterexample``, its
    function, to ``CHECKS``; the name defaults to the checker's.  A checker
    that needs the model is wrapped to report dependency_unmet where the
    model's labeled classes cannot be built."""

    def register(checker):
        key = name or checker.__name__
        if model:
            unwrapped = checker

            @functools.wraps(unwrapped)
            def checker(s, m):
                try:
                    return unwrapped(s, m)
                except (NotTwoClassesError, MissingElementError) as e:
                    return _dependency(key, e)

        _TABLE.append(Check(key, display or key, layer, model, checker, counterexample))
        return checker

    return register


def names(*layers: str) -> tuple[str, ...]:
    """The names of the checks of ``layers``, in table order."""
    return tuple(c.name for c in _checks(*layers) if c.layer in layers)


def display_name(name: str) -> str:
    return next(c.display for c in _checks(*LAYERS) if c.name == name)


def _dependency(name: str, exc: Exception) -> CheckReport:
    witness = getattr(exc, "witness", None)
    ce = {"issue": "labeling_unavailable", "detail": str(exc)}  # detail names the labeling's own issue
    if isinstance(witness, dict):
        ce.update((k, v) for k, v in witness.items() if k != "issue")
    return CheckReport(name, DEPENDENCY_UNMET, counterexample=ce)


def run_checks(
    s: IncidenceStructure, layers, m: Optional[GeometryModel] = None
) -> list[CheckReport]:
    """Run the checks of ``layers`` in table order.

    The first check that needs the model derives it, unless ``m`` is given;
    when the labeling fails, every check that needs the model reports
    dependency_unmet with the labeling's witness.
    """
    reports = []
    error = None
    for c in _checks(*layers):
        if c.layer not in layers:
            continue
        if not c.needs_model:
            reports.append(c.checker(s))
            continue
        if m is None and error is None:
            from .labeling import coordinate_labels

            try:
                m = coordinate_labels(s)
            except (NotTwoClassesError, LabelInconsistencyError) as e:
                error = e
        reports.append(_dependency(c.name, error) if error else c.checker(s, m))
    return reports


def replay(s: IncidenceStructure, report: CheckReport, m: Optional[GeometryModel] = None) -> bool:
    """Re-evaluate a failing report's counterexample against the structure.

    Returns True when the check's counterexample function, run on the
    report's own fields, gives back exactly those fields: the named
    configuration still violates the claim, and every field it derives
    agrees.  Raises ValueError on a report with no counterexample, on an
    unknown check, and on a check that needs the model when ``m`` is None.
    """
    ce = report.counterexample
    name = report.check_name
    if ce is None:
        raise ValueError(f"report {name} has no counterexample")
    c = next((c for c in _checks(*LAYERS) if c.name == name), None)
    if c is None:
        raise ValueError(f"no replay registered for check {name!r}")
    if c.needs_model and m is None:
        raise ValueError(f"replay of {name} needs the model it was checked against")
    return c.counterexample(*((s, m) if c.needs_model else (s,)), **ce) == ce
