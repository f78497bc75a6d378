"""A small deterministic min-cost max-flow solver (pure python).

Successive shortest paths with SPFA (queue-based Bellman–Ford) distance
labels: repeatedly find a cheapest residual source→sink path, augment by
the bottleneck capacity, stop when the sink is unreachable.  SPFA rather
than Dijkstra-with-potentials because residual reverse arcs carry
negative costs and the assignment graphs built by
:mod:`repro.scheduling.flow.graph` are small — tasks + resources + 3
nodes for the full ``T × R`` graph, ``R + 6`` nodes and ``O(R)`` arcs
for the equivalence-class graph — so the simpler
label-correcting algorithm wins on clarity.

Determinism is a contract, not an accident: arcs keep insertion order,
SPFA relaxes the adjacency lists in that order and re-parents only on a
*strict* distance improvement, and all costs are integers (the graph
layer scales float costs).  Identical graphs therefore produce
bit-identical flows — which is what lets the scheduler built on top
promise bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

__all__ = ["FlowNetwork"]

_INF = float("inf")


class FlowNetwork:
    """Directed graph with integer capacities/costs and residual arcs.

    Every :meth:`add_arc` call creates the forward arc at an even index
    and its zero-capacity reverse at the following odd index; the flow
    pushed over arc ``a`` is readable as the reverse arc's capacity
    (``flow_on``).
    """

    def __init__(self, node_count: int) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        self.node_count = node_count
        self._adjacent: List[List[int]] = [[] for _ in range(node_count)]
        self._to: List[int] = []
        self._capacity: List[int] = []
        self._cost: List[int] = []

    def add_arc(self, src: int, dst: int, capacity: int, cost: int) -> int:
        """Add ``src -> dst`` with ``capacity`` at ``cost`` per unit."""
        if not (0 <= src < self.node_count and 0 <= dst < self.node_count):
            raise ValueError("arc endpoint out of range")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        index = len(self._to)
        self._to.append(dst)
        self._capacity.append(int(capacity))
        self._cost.append(int(cost))
        self._adjacent[src].append(index)
        self._to.append(src)
        self._capacity.append(0)
        self._cost.append(-int(cost))
        self._adjacent[dst].append(index + 1)
        return index

    def flow_on(self, arc: int) -> int:
        """Units pushed over the forward arc ``arc``."""
        return self._capacity[arc ^ 1]

    # ------------------------------------------------------------------
    def _cheapest_path(self, source: int, sink: int):
        """SPFA distance labels plus the arc that set each label."""
        adjacent, capacity, to_node, cost = (
            self._adjacent, self._capacity, self._to, self._cost
        )
        distance = [_INF] * self.node_count
        parent_arc = [-1] * self.node_count
        in_queue = [False] * self.node_count
        distance[source] = 0
        queue = deque([source])
        push, pop = queue.append, queue.popleft
        in_queue[source] = True
        while queue:
            node = pop()
            in_queue[node] = False
            base = distance[node]
            for arc in adjacent[node]:
                if capacity[arc] <= 0:
                    continue
                to = to_node[arc]
                candidate = base + cost[arc]
                if candidate < distance[to]:  # strict: deterministic parents
                    distance[to] = candidate
                    parent_arc[to] = arc
                    if not in_queue[to]:
                        push(to)
                        in_queue[to] = True
        if parent_arc[sink] < 0:
            return None
        return parent_arc

    def min_cost_max_flow(self, source: int, sink: int) -> Tuple[int, int]:
        """Push the maximum flow at minimum total cost; ``(flow, cost)``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        total_flow = 0
        total_cost = 0
        while True:
            parent_arc = self._cheapest_path(source, sink)
            if parent_arc is None:
                return total_flow, total_cost
            bottleneck = None
            node = sink
            while node != source:
                arc = parent_arc[node]
                capacity = self._capacity[arc]
                if bottleneck is None or capacity < bottleneck:
                    bottleneck = capacity
                node = self._to[arc ^ 1]
            node = sink
            while node != source:
                arc = parent_arc[node]
                self._capacity[arc] -= bottleneck
                self._capacity[arc ^ 1] += bottleneck
                total_cost += bottleneck * self._cost[arc]
                node = self._to[arc ^ 1]
            total_flow += bottleneck
