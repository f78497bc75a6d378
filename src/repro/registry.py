"""One uniform interface over the repo's three component registries.

The package has three component registries — scheduling strategies
(:data:`repro.scheduling.registry.SCHEDULERS`), scenarios
(:mod:`repro.scenarios.library`) and estimate-error families
(:data:`repro.workflow.costs.ERROR_MODELS`).  This module is the one
front door, and the only place a name becomes a component:

>>> from repro import registry
>>> registry.available("scheduler")       # doctest: +ELLIPSIS
['aheft', 'cpop', ...]
>>> registry.make("error_model", "gaussian", magnitude=0.3, seed=7)
... # doctest: +SKIP
>>> registry.describe("scenario", "paper")["summary"]
"the paper's join-only (R, Δ, δ) model"

Error semantics are per kind: unknown schedulers and error models raise
:class:`KeyError`, unknown scenarios raise
:class:`~repro.scenarios.base.ScenarioError`.

Imports of the domain registries happen lazily inside each function, so
this module can sit at the package root without creating import cycles.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["KINDS", "available", "make", "describe"]

#: The registry kinds understood by :func:`available`/:func:`make`/:func:`describe`.
KINDS = ("scheduler", "scenario", "error_model")

#: accepted spellings (the CLI and the facade say "strategy")
_ALIASES = {"strategy": "scheduler", "error-model": "error_model"}


def _resolve_kind(kind: str) -> str:
    resolved = _ALIASES.get(kind, kind)
    if resolved not in KINDS:
        raise KeyError(f"unknown registry kind {kind!r}; choose from {KINDS}")
    return resolved


def _entries(kind: str) -> Dict[str, object]:
    """The name -> entry mapping of one (resolved) ``kind``."""
    if kind == "scheduler":
        from repro.scheduling.registry import SCHEDULERS

        return SCHEDULERS
    if kind == "scenario":
        from repro.scenarios.library import _REGISTRY

        return _REGISTRY
    from repro.workflow.costs import ERROR_MODELS

    return ERROR_MODELS


def _scheduler(name: str):
    """The :class:`~repro.scheduling.registry.StrategyInfo` of ``name``."""
    entries = _entries("scheduler")
    if name not in entries:
        raise KeyError(f"unknown scheduler {name!r}; registered: {sorted(entries)}")
    return entries[name]


def _scenario(name: str):
    """The registered factory of scenario ``name``."""
    entries = _entries("scenario")
    if name not in entries:
        from repro.scenarios.base import ScenarioError

        raise ScenarioError(f"unknown scenario {name!r}; available: {sorted(entries)}")
    return entries[name]


def _error_model(name: str):
    """The registered factory of error family ``name``."""
    entries = _entries("error_model")
    if name not in entries:
        raise KeyError(f"unknown error model {name!r}; available: {sorted(entries)}")
    return entries[name]


def available(kind: str) -> List[str]:
    """Registered component names of one ``kind``, sorted."""
    return sorted(_entries(_resolve_kind(kind)))


def make(kind: str, name: str, **params):
    """Instantiate the registered component ``name`` of ``kind``.

    ``params`` are forwarded to the component's factory.  For error
    models, ``magnitude`` (the family's primary knob; omitted or ``None``
    keeps the family's default) and ``seed`` (default 0) are passed to
    the factory explicitly.
    """
    kind = _resolve_kind(kind)
    if kind == "scheduler":
        from repro.scheduling.registry import validate_scheduler_params

        factory = _scheduler(name).factory
        validate_scheduler_params(name, factory, params)
        return factory(**params)
    if kind == "scenario":
        return _scenario(name)(**params)
    factory = _error_model(name)
    magnitude = params.pop("magnitude", None)
    seed = params.pop("seed", 0)
    if magnitude is None:
        return factory(seed=seed, **params)
    return factory(magnitude, seed=seed, **params)


def describe(kind: str, name: str) -> Dict[str, object]:
    """Metadata of one registered component, as the CLI renders it.

    Always contains ``name`` and ``summary``; schedulers add their default
    execution ``kind`` (static/adaptive/dynamic) and constructor
    ``params``, scenarios add their factory ``defaults``.
    """
    kind = _resolve_kind(kind)
    if kind == "scheduler":
        info = _scheduler(name)
        return {
            "name": name,
            "kind": info.kind,
            "summary": info.summary,
            "params": info.parameters(),
        }
    if kind == "scenario":
        from repro.scenarios.library import _SUMMARIES

        return {
            "name": name,
            "summary": _SUMMARIES.get(name, ""),
            "defaults": _scenario(name)().params(),
        }
    from repro.workflow.costs import _ERROR_MODEL_SUMMARIES

    _error_model(name)
    return {
        "name": name,
        "summary": _ERROR_MODEL_SUMMARIES.get(name, "(no summary registered)"),
    }
