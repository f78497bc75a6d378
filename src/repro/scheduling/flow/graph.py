"""The task-assignment flow graph (Firmament's shape, one ready wave).

One solve maps a *wave* of ready tasks onto the resource pool.  When arc
costs depend on the task (the ``locality`` model) every task gets its own
arc to every resource — the full ``T × R`` graph::

    source --1--> task_i --cost(i,r)--> resource_r --1--> sink
                     \\--defer(i)--> unscheduled aggregator --|T|--> sink

When they do not (``octopus``, ``credit``: a cost model's
``task_independent`` capability) the wave goes through Firmament's
equivalence classes instead — one class node fans out to the resources,
one ``wait`` class node to the aggregator, so the graph has ``O(T + R)``
arcs and each resource is priced once::

    source --1--> task_i --0--> class --cost(r)--> resource_r --1--> sink
                     \\--0--> wait --defer--> unscheduled aggregator --> sink

Only the first ``len(resources)`` ready tasks enter the class graph (at
most that many can be placed); the rest are deferred.  The ``wait`` node
is what makes the class graph agree with the full one: it queues the
aggregator behind the resources in the solver's label-correcting order,
so a resource priced exactly at the deferral cost still wins the tie, as
it does in the full graph.  The solve fixes how many tasks run and on
which resources; they pair up the way the full graph's successive
shortest paths do — placed tasks in ready order onto the used resources
sorted by (scaled cost, pool index).

All task and resource arcs have unit capacity (a resource takes at most
one new task per wave, mirroring Firmament's one-slot-per-PU machine
topology); the unscheduled aggregator absorbs any task the solve prefers
to defer, so the program is *always* feasible — max flow equals the
number of tasks in the graph, and minimum cost decides who runs where and
who waits for the next wave.

Costs arrive as floats from the pluggable cost models and are scaled to
integers here (``COST_SCALE``), keeping the solver exact and the result
deterministic across platforms.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.scheduling.flow.solver import FlowNetwork

__all__ = ["COST_SCALE", "solve_assignment"]

#: float costs are fixed-point scaled by this factor before solving
COST_SCALE = 1024


def _scaled(cost: float) -> int:
    if cost != cost or cost == float("inf"):  # NaN / inf guard
        raise ValueError(f"flow arc cost must be finite, got {cost!r}")
    return max(0, int(round(cost * COST_SCALE)))


def solve_assignment(
    tasks: Sequence[str],
    resources: Sequence[str],
    assignment_cost: Callable[[str, str], float],
    deferral_cost: Callable[[str], float],
    *,
    task_independent: bool = False,
) -> Dict[str, str]:
    """Min-cost assignment of one wave; ``task -> resource`` for the
    tasks the solve placed (deferred tasks are simply absent).

    ``assignment_cost(task, resource)`` prices running the task there
    now; ``deferral_cost(task)`` prices sending it to the unscheduled
    aggregator instead.  Both in float cost units.  With
    ``task_independent`` both must ignore the task: each resource is
    then priced once, the deferral once, and the wave is solved on the
    equivalence-class graph.
    """
    if not tasks:
        return {}
    if not resources:
        raise ValueError("cannot build an assignment graph without resources")
    if task_independent:
        return _solve_through_classes(tasks, resources, assignment_cost, deferral_cost)
    task_count = len(tasks)
    source, sink, aggregator = 0, 1, 2
    task_base = 3
    resource_base = task_base + task_count
    network = FlowNetwork(resource_base + len(resources))

    placement_arcs: Dict[Tuple[str, str], int] = {}
    for i, task in enumerate(tasks):
        network.add_arc(source, task_base + i, 1, 0)
        for r, rid in enumerate(resources):
            placement_arcs[(task, rid)] = network.add_arc(
                task_base + i, resource_base + r, 1, _scaled(assignment_cost(task, rid))
            )
        network.add_arc(task_base + i, aggregator, 1, _scaled(deferral_cost(task)))
    for r in range(len(resources)):
        network.add_arc(resource_base + r, sink, 1, 0)
    network.add_arc(aggregator, sink, task_count, 0)

    flow, _ = network.min_cost_max_flow(source, sink)
    assert flow == task_count, "aggregator arc keeps the program feasible"
    return {
        task: rid
        for (task, rid), arc in placement_arcs.items()
        if network.flow_on(arc) > 0
    }


def _solve_through_classes(
    tasks: Sequence[str],
    resources: Sequence[str],
    assignment_cost: Callable[[str, str], float],
    deferral_cost: Callable[[str], float],
) -> Dict[str, str]:
    """The equivalence-class graph of :func:`solve_assignment`."""
    probe = tasks[0]
    prices = [_scaled(assignment_cost(probe, rid)) for rid in resources]
    deferral = _scaled(deferral_cost(probe))
    tasks = tasks[: len(resources)]
    task_count = len(tasks)
    source, sink, aggregator, task_class, wait = 0, 1, 2, 3, 4
    task_base = 5
    resource_base = task_base + task_count
    network = FlowNetwork(resource_base + len(resources))

    class_arcs = []
    for i in range(task_count):
        network.add_arc(source, task_base + i, 1, 0)
        class_arcs.append(network.add_arc(task_base + i, task_class, 1, 0))
        network.add_arc(task_base + i, wait, 1, 0)
    resource_arcs = [
        network.add_arc(task_class, resource_base + r, 1, price)
        for r, price in enumerate(prices)
    ]
    network.add_arc(wait, aggregator, task_count, deferral)
    for r in range(len(resources)):
        network.add_arc(resource_base + r, sink, 1, 0)
    network.add_arc(aggregator, sink, task_count, 0)

    flow, _ = network.min_cost_max_flow(source, sink)
    assert flow == task_count, "aggregator arc keeps the program feasible"
    placed = [task for task, arc in zip(tasks, class_arcs) if network.flow_on(arc) > 0]
    used = sorted(
        (prices[r], r) for r, arc in enumerate(resource_arcs) if network.flow_on(arc) > 0
    )
    assert len(placed) == len(used), "every class unit leaves through one resource"
    return {task: resources[r] for task, (_, r) in zip(placed, used)}
