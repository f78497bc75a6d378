"""Serialization of workflow DAGs.

Workflows can be round-tripped through plain dictionaries / JSON (for
storing generated experiment cases) and exported to Graphviz DOT or
:mod:`networkx` for inspection and plotting. networkx is imported only by
the two converters that need it, so the rest of the package runs without it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.workflow.dag import Job, Workflow

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "workflow_to_json",
    "workflow_from_json",
    "workflow_to_dot",
    "workflow_to_networkx",
    "workflow_from_networkx",
]

_FORMAT_VERSION = 1


def workflow_to_dict(workflow: Workflow) -> Dict:
    """Render a workflow to a JSON-serialisable dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": workflow.name,
        "jobs": [
            {
                "id": job_id,
                "operation": workflow.job(job_id).operation,
                "payload": dict(workflow.job(job_id).payload),
            }
            for job_id in workflow.jobs
        ],
        "edges": [
            {"src": src, "dst": dst, "data": data}
            for src, dst, data in workflow.edges()
        ],
    }


def workflow_from_dict(payload: Mapping) -> Workflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output.

    Raises
    ------
    ValueError
        If the payload is malformed or uses an unknown format version.
    """
    version = payload.get("format_version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported workflow format version: {version!r}")
    if "jobs" not in payload or "edges" not in payload:
        raise ValueError("workflow payload must contain 'jobs' and 'edges'")
    workflow = Workflow(str(payload.get("name", "workflow")))
    for job in payload["jobs"]:
        workflow.add_job(
            Job(
                job_id=str(job["id"]),
                operation=str(job.get("operation", "task")),
                payload=dict(job.get("payload", {})),
            )
        )
    for edge in payload["edges"]:
        workflow.add_edge(str(edge["src"]), str(edge["dst"]), float(edge.get("data", 0.0)))
    return workflow


def workflow_to_json(workflow: Workflow, *, indent: Optional[int] = None) -> str:
    """Serialise a workflow to a JSON string."""
    return json.dumps(workflow_to_dict(workflow), indent=indent, sort_keys=True)


def workflow_from_json(text: str) -> Workflow:
    """Parse a workflow from :func:`workflow_to_json` output."""
    return workflow_from_dict(json.loads(text))


def workflow_to_dot(workflow: Workflow, *, include_data: bool = True) -> str:
    """Render the workflow as a Graphviz DOT digraph string."""
    lines = [f'digraph "{workflow.name}" {{', "  rankdir=TB;"]
    for job_id in workflow.jobs:
        op = workflow.job(job_id).operation
        lines.append(f'  "{job_id}" [label="{job_id}\\n{op}"];')
    for src, dst, data in workflow.edges():
        if include_data:
            lines.append(f'  "{src}" -> "{dst}" [label="{data:g}"];')
        else:
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines)


def workflow_to_networkx(workflow: Workflow) -> nx.DiGraph:
    """Export the workflow to a :class:`networkx.DiGraph`.

    Node attributes carry the operation name; edge attribute ``data`` carries
    the transferred data volume.
    """
    import networkx as nx

    graph = nx.DiGraph(name=workflow.name)
    for job_id in workflow.jobs:
        job = workflow.job(job_id)
        graph.add_node(job_id, operation=job.operation, **dict(job.payload))
    for src, dst, data in workflow.edges():
        graph.add_edge(src, dst, data=data)
    return graph


def workflow_from_networkx(graph: nx.DiGraph, *, name: Optional[str] = None) -> Workflow:
    """Build a workflow from a :class:`networkx.DiGraph`.

    Raises
    ------
    ValueError
        If the graph is not a DAG.
    """
    import networkx as nx

    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("graph must be a directed acyclic graph")
    workflow = Workflow(name or str(graph.graph.get("name", "workflow")))
    for node, attrs in graph.nodes(data=True):
        payload = {k: v for k, v in attrs.items() if k != "operation"}
        workflow.add_job(
            Job(job_id=str(node), operation=str(attrs.get("operation", "task")), payload=payload)
        )
    for src, dst, attrs in graph.edges(data=True):
        workflow.add_edge(str(src), str(dst), float(attrs.get("data", 0.0)))
    return workflow
