"""The strategy registry: every scheduling heuristic, addressable by name.

Mirrors the scenario registry (:mod:`repro.scenarios.library`) and the
error-model registry (:data:`repro.workflow.costs.ERROR_MODELS`): a flat
mapping from a stable lowercase name to a factory plus metadata, consumed
by the experiment sweeps (``strategies=("heft", "cpop", ...)``), the CLI
(``repro sweep/mc/multi --strategies`` and ``repro strategies``), the
tournament benchmark and the universal scheduler-invariant test suite —
a strategy registered here is automatically swept, enumerated in
``--help`` and property-tested.

Every factory returns a scheduler object with ``schedule(workflow,
costs, resources, *, busy=None)`` — for the built-ins, a ``place(frame)``
policy bound to the driver in :mod:`repro.scheduling.frame`; each
``kind`` describes the strategy's *default* execution mode:

``static``
    plan once at t=0 (``repro.run(..., mode="static")``);
``adaptive``
    replan at every grid event (``repro.run(..., mode="adaptive")``);
``dynamic``
    just-in-time batch mapping (``repro.run(..., mode="dynamic")``).

Independently of its kind, any scheduler that also exposes the
``reschedule`` interface can be injected into the adaptive loop and the
multi-tenant planner (``repro.run(..., mode="adaptive", strategy="cpop")``,
the ``adaptive:<name>`` sweep prefix), which is how every list heuristic can
be ablated against the paper's AHEFT.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.baselines import (
    MaxMinScheduler,
    OpportunisticLoadBalancer,
    RandomStaticScheduler,
    SufferageScheduler,
)
from repro.scheduling.cpop import CPOPScheduler
from repro.scheduling.duplication import HEFTDupScheduler
from repro.scheduling.flow.scheduler import MinCostFlowScheduler
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.lookahead import LookaheadHEFTScheduler
from repro.scheduling.minmin import MinMinScheduler

__all__ = [
    "SCHEDULERS",
    "StrategyInfo",
    "register_scheduler",
    "validate_scheduler_params",
]

_KINDS = ("static", "adaptive", "dynamic")


@dataclass(frozen=True)
class StrategyInfo:
    """One registry entry: factory plus the metadata the CLI prints."""

    name: str
    kind: str
    summary: str
    factory: Callable[..., object]

    def parameters(self) -> Dict[str, object]:
        """Constructor parameters and their defaults (for ``repro strategies``)."""
        params: Dict[str, object] = {}
        for parameter in inspect.signature(self.factory).parameters.values():
            if parameter.name in ("self", "name"):
                continue
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            params[parameter.name] = (
                None
                if parameter.default is inspect.Parameter.empty
                else parameter.default
            )
        return params


#: name -> :class:`StrategyInfo`; mutate only via :func:`register_scheduler`.
SCHEDULERS: Dict[str, StrategyInfo] = {}


def validate_scheduler_params(
    name: str, factory: Callable[..., object], params: Dict[str, object]
) -> None:
    """Reject keyword ``params`` the strategy's factory does not accept.

    Every registry entry gets the same :class:`TypeError` — naming the
    strategy and listing its valid parameters — instead of whatever the
    underlying constructor happens to raise (dataclass ``__init__``
    messages name neither), and regardless of whether a future factory
    would have silently swallowed the keyword.  A factory declaring
    ``**kwargs`` opts out: it explicitly accepts arbitrary keywords.
    """
    accepted = set()
    for parameter in inspect.signature(factory).parameters.values():
        if parameter.name == "self":
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            accepted.add(parameter.name)
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise TypeError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
            f"scheduler {name!r}; valid parameters: "
            f"{sorted(accepted) if accepted else 'none'}"
        )


def register_scheduler(name: str, *, kind: str, summary: str = ""):
    """Register ``factory`` under ``name`` for sweeps, the CLI and the tests."""
    if kind not in _KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}; choose from {_KINDS}")

    def decorator(factory: Callable[..., object]):
        if name in SCHEDULERS:
            raise ValueError(f"scheduler {name!r} already registered")
        SCHEDULERS[name] = StrategyInfo(
            name=name, kind=kind, summary=summary, factory=factory
        )
        return factory

    return decorator


# ----------------------------------------------------------------------
# built-in strategies
# ----------------------------------------------------------------------
_BUILTINS: Tuple[Tuple[str, str, str, Callable[..., object]], ...] = (
    (
        "heft",
        "static",
        "HEFT: upward-rank order, minimum-EFT placement (paper baseline)",
        HEFTScheduler,
    ),
    (
        "aheft",
        "adaptive",
        "AHEFT: HEFT-based rescheduling of the unfinished part (the paper)",
        AHEFTScheduler,
    ),
    (
        "minmin",
        "dynamic",
        "Min-Min: fix the ready job with the smallest best completion",
        MinMinScheduler,
    ),
    (
        "maxmin",
        "dynamic",
        "Max-Min: fix the ready job with the largest best completion",
        MaxMinScheduler,
    ),
    (
        "sufferage",
        "dynamic",
        "Sufferage: fix the job that loses most without its best resource",
        SufferageScheduler,
    ),
    (
        "cpop",
        "static",
        "CPOP: critical path pinned to one processor, min-EFT elsewhere",
        CPOPScheduler,
    ),
    (
        "lookahead_heft",
        "static",
        "Lookahead HEFT: placement minimises the worst child EFT",
        LookaheadHEFTScheduler,
    ),
    (
        "heft_dup",
        "static",
        "HEFT + task duplication: re-run the binding predecessor locally",
        HEFTDupScheduler,
    ),
    (
        "olb",
        "static",
        "Opportunistic Load Balancer: earliest-free resource, cost-blind",
        OpportunisticLoadBalancer,
    ),
    (
        "random_static",
        "static",
        "random resource per job (seeded sanity lower bound)",
        RandomStaticScheduler,
    ),
    (
        "mincost_flow",
        "adaptive",
        "min-cost max-flow placement per ready wave (Firmament-style)",
        MinCostFlowScheduler,
    ),
)

for _name, _kind, _summary, _factory in _BUILTINS:
    register_scheduler(_name, kind=_kind, summary=_summary)(_factory)
