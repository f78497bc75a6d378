"""Outside-in layer tracing: timing wrappers swapped onto the program's
public functions and methods, removed again when the traced pass ends.

A span is opened around every call into a hooked function.  Its *self*
time is its duration minus the time its child spans cover, so the self
times of one pass add up to the duration of the root spans the benchmark
opens itself (``bench.setup`` and ``bench.run``).

Hooks cover a function under every name it is reachable by: a function
imported into another module (``upward_ranks`` in ``scheduling/heft.py``,
``build_case`` in ``generators/random_dag.py``) is replaced there too.
Per-element hot methods — ``ResourceTimeline.occupy``/``earliest_start``
and ``CostModel.computation_cost`` — are deliberately not hooked: they
run tens of thousands of times per case, each call doing less work than
a wrapper would add.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute, layer) — module-level functions to hook
FUNCTION_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.generators.random_dag", "generate_random_case", "generators.dag"),
    ("repro.generators.random_dag", "generate_random_dag", "generators.dag"),
    ("repro.generators.blast", "generate_blast_case", "generators.dag"),
    ("repro.generators.wien2k", "generate_wien2k_case", "generators.dag"),
    ("repro.generators.montage", "generate_montage_case", "generators.dag"),
    ("repro.generators.costs", "build_case", "workflow.pricing"),
    ("repro.workflow.analysis", "upward_ranks", "analysis.ranks"),
    ("repro.workflow.analysis", "downward_ranks", "analysis.ranks"),
    ("repro.scheduling.flow.graph", "solve_assignment", "flow.assign"),
    ("repro.core.adaptive", "repair_schedule", "core.repair"),
    ("repro.core.adaptive", "project_actuals", "core.truth_replay"),
    ("repro.scenarios.base", "materialize", "scenarios.materialize"),
)

#: (module, class, methods, layer) — methods hooked on the class and on
#: every subclass that overrides them
METHOD_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.workflow.costs", "HeterogeneousCostModel", ("__init__",), "workflow.pricing"),
    (
        "repro.workflow.costs",
        "CostModel",
        (
            "computation_matrix",
            "computation_rows",
            "average_computation_costs",
            "edge_communication_costs",
            "predecessor_communications",
        ),
        "workflow.cost_views",
    ),
    ("repro.scheduling.aheft", "AHEFTScheduler", ("schedule",), "scheduling.schedule"),
    ("repro.scheduling.aheft", "AHEFTScheduler", ("reschedule",), "scheduling.reschedule"),
    ("repro.scheduling.heft", "HEFTScheduler", ("schedule",), "scheduling.schedule"),
    ("repro.scheduling.flow.scheduler", "MinCostFlowScheduler", ("schedule",),
     "scheduling.schedule"),
    ("repro.scheduling.flow.scheduler", "MinCostFlowScheduler", ("reschedule",),
     "scheduling.reschedule"),
    ("repro.scheduling.flow.solver", "FlowNetwork", ("min_cost_max_flow",), "flow.solve"),
    ("repro.core.adaptive", "AdaptiveReschedulingLoop", ("run",), "core.loop"),
    ("repro.simulation.shared_grid", "SharedGridExecutor", ("run",), "core.loop"),
    ("repro.core.admission", "AdmissionController", ("evaluate",), "core.admission"),
    ("repro.core.multi_tenant", "MultiTenantPlanner", ("plan_arrival",), "core.plan_arrival"),
    ("repro.core.multi_tenant", "MultiTenantPlanner", ("busy_view",), "core.busy_view"),
    ("repro.core.multi_tenant", "MultiTenantPlanner", ("handle_event",), "core.handle_event"),
    (
        "repro.resources.pool",
        "ResourcePool",
        ("available_at", "joined_in", "events", "snapshot", "restricted_to"),
        "resources.pool_query",
    ),
    ("repro.simulation.event_core", "EventCore", ("run",), "simulation.dispatch"),
    ("repro.workload.streams", "WorkloadStream", ("arrivals",), "workload.arrivals"),
)

#: layer of the event handlers the loops post onto the event core
HANDLER_LAYER = "core.handler"


class Tracer:
    """Span bookkeeping: per-layer self seconds and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # one child-time accumulator per open span
        self._children: List[float] = []

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        children = self._children
        start = self.clock()
        children.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.self_s[layer] += duration - children.pop()
            self.calls[layer] += 1
            if children:
                children[-1] += duration

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Return and reset the accumulated self times and call counts."""
        if self._children:
            raise RuntimeError("take() inside an open span")
        taken = (dict(self.self_s), dict(self.calls))
        self.self_s.clear()
        self.calls.clear()
        return taken


def _classes_defining(root: type, name: str) -> List[type]:
    """``root`` and every subclass whose own ``__dict__`` defines ``name``."""
    found, stack, seen = [], [root], set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in cls.__dict__:
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


class Hooks:
    """Install timing wrappers for one traced pass; ``remove()`` restores.

    Use as a context manager so the originals come back even when the
    traced code raises.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Hooks":
        tracer = self.tracer
        for module_name, *_ in FUNCTION_HOOKS + METHOD_HOOKS:
            importlib.import_module(module_name)
        repro_modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for module_name, attr, layer in FUNCTION_HOOKS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(layer, original)
            for module in repro_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        for module_name, class_name, methods, layer in METHOD_HOOKS:
            root = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                for cls in _classes_defining(root, method):
                    self._set(cls, method, tracer.wrap(layer, cls.__dict__[method]))
        self._hook_event_handlers()
        return self

    def _hook_event_handlers(self) -> None:
        """Open a handler span around every callback posted to the core."""
        from repro.simulation.event_core import EventCore

        tracer = self.tracer
        original_post = EventCore.__dict__["post"]

        def post(core, time, callback, **kwargs):
            return original_post(core, time, tracer.wrap(HANDLER_LAYER, callback), **kwargs)

        self._set(EventCore, "post", post)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Hooks":
        try:
            return self.install()
        except BaseException:
            self.remove()
            raise

    def __exit__(self, *exc) -> None:
        self.remove()
