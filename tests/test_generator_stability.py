"""Seed-stability regression: golden structural hashes of the generators.

Every benchmark ledger in ``benchmarks/baselines/`` assumes that a given
``(parameters, seed)`` pair always produces the *same* priced workflow.  A
refactor of the generators or of the hierarchical seeding
(:mod:`repro.utils.rng`) that silently reshuffles draws would shift every
benchmark at once — and ``repro compare`` would blame the scheduler.
These golden fingerprints pin the generator outputs themselves: the hash
covers the DAG structure (jobs, operations, edges), the edge data volumes
and the computation/communication costs on a canonical resource set.

If a change *intentionally* alters generated cases (new distribution, new
seeding scheme), regenerate the constants below (the failing test prints
the new values) **and** re-bless every benchmark baseline in the same PR.
"""

from __future__ import annotations

import hashlib

from repro.generators.blast import generate_blast_case
from repro.generators.montage import generate_montage_case
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.generators.wien2k import generate_wien2k_case
from repro.workload.streams import WorkloadStream, default_tenants

#: canonical resource ids the cost fingerprints are evaluated on (lazy
#: per-resource draws are seeded by resource identity, so this also pins
#: the pool-growth pricing path)
RESOURCES = ("r1", "r2", "r3", "r4")

GOLDEN = {
    "random_v30_seed7": "3719ef71f2ba6a69f505",
    "random_v30_seed7_instance1": "39312e479cd940a1a5a1",
    "blast_p12_seed3": "2f95caa5b1b20f036423",
    "wien2k_p8_seed3": "0359e309c22fb2d106f9",
    "montage_p10_seed3": "9c7c9bcf557a4e602ec6",
}

#: a four-tenant ``default_tenants`` stream (every workload kind): arrival
#: order, times, kinds, service targets, case parameters and each case's
#: :func:`fingerprint`
STREAM_GOLDEN = "f8384f52c13bf0278cdb"


def fingerprint(case) -> str:
    """SHA-256 over structure, operations, data volumes and costs."""
    digest = hashlib.sha256()
    workflow = case.workflow
    for job in workflow.jobs:
        digest.update(f"J|{job}|{workflow.job(job).operation}".encode())
        for rid in RESOURCES:
            digest.update(f"|{case.costs.computation_cost(job, rid)!r}".encode())
        digest.update(b"\n")
    for src, dst, data in workflow.edges():
        digest.update(
            f"E|{src}|{dst}|{data!r}|"
            f"{case.costs.average_communication_cost(src, dst)!r}\n".encode()
        )
    return digest.hexdigest()[:20]


def stream_fingerprint(arrivals) -> str:
    """SHA-256 over every arrival of a stream and the case it carries."""
    digest = hashlib.sha256()
    for arrival in arrivals:
        digest.update(
            f"A|{arrival.seq}|{arrival.key}|{arrival.time!r}|{arrival.kind}|"
            f"{arrival.deadline_factor!r}|{arrival.slo_stretch!r}|"
            f"{arrival.case.workflow.name}|{sorted(arrival.case.params.items())!r}|"
            f"{fingerprint(arrival.case)}\n".encode()
        )
    return digest.hexdigest()[:20]


def _golden_stream():
    tenants = default_tenants(
        4, arrival_rate=0.002, max_arrivals=8, v=12, parallelism=6, deadline_factor=3.0
    )
    return WorkloadStream(tenants, seed=11, horizon=20000.0)


def _build(name: str):
    if name == "random_v30_seed7":
        return generate_random_case(RandomDAGParameters(v=30), seed=7)
    if name == "random_v30_seed7_instance1":
        return generate_random_case(RandomDAGParameters(v=30), seed=7, instance=1)
    if name == "blast_p12_seed3":
        return generate_blast_case(12, ccr=1.0, beta=0.5, omega_dag=100.0, seed=3)
    if name == "wien2k_p8_seed3":
        return generate_wien2k_case(8, ccr=1.0, beta=0.5, omega_dag=100.0, seed=3)
    if name == "montage_p10_seed3":
        return generate_montage_case(10, ccr=1.0, beta=0.5, omega_dag=100.0, seed=3)
    raise KeyError(name)


class TestGoldenFingerprints:
    def test_all_generators_match_golden_hashes(self):
        actual = {name: fingerprint(_build(name)) for name in GOLDEN}
        assert actual == GOLDEN, (
            "generator outputs shifted — if intentional, update GOLDEN to the "
            f"values above and re-bless benchmarks/baselines/: {actual}"
        )

    def test_fingerprint_is_query_order_independent(self):
        """Lazy cost draws must not depend on evaluation order."""
        case_a = generate_random_case(RandomDAGParameters(v=30), seed=7)
        case_b = generate_random_case(RandomDAGParameters(v=30), seed=7)
        # warm case_b's cost cache in reverse order before fingerprinting
        for job in reversed(case_b.workflow.jobs):
            for rid in reversed(RESOURCES):
                case_b.costs.computation_cost(job, rid)
        assert fingerprint(case_a) == fingerprint(case_b)

    def test_instances_differ_but_are_each_stable(self):
        assert GOLDEN["random_v30_seed7"] != GOLDEN["random_v30_seed7_instance1"]
        a = fingerprint(generate_random_case(RandomDAGParameters(v=30), seed=7))
        b = fingerprint(generate_random_case(RandomDAGParameters(v=30), seed=7))
        assert a == b


class TestGoldenStream:
    def test_default_tenants_stream_matches_golden(self):
        arrivals = _golden_stream().arrivals()
        assert {arrival.kind for arrival in arrivals} == {"random", "blast", "wien2k", "montage"}
        actual = stream_fingerprint(arrivals)
        assert actual == STREAM_GOLDEN, (
            "arrival stream shifted — if intentional, update STREAM_GOLDEN to "
            f"{actual!r} and re-bless benchmarks/baselines/"
        )
