"""Golden-schedule regression fixtures for every registered strategy.

Mirrors ``tests/test_generator_stability.py``: the *full schedule* each
registered strategy produces on two canonical inputs — the paper's Fig. 4
sample DAG and one fixed random DAG — is committed as JSON under
``tests/goldens/``.  A refactor that silently changes any strategy's
placement (a tie-break, a ready-time rule, an order change) fails here
with a precise diff instead of surfacing as an unexplained benchmark
drift.

If a change *intentionally* alters a strategy's output, regenerate with

    pytest tests/test_scheduler_goldens.py --regen-goldens

and re-bless any affected benchmark baselines in the same PR.  Newly
registered strategies are picked up automatically — the test fails until
their goldens are regenerated, which is the reminder to commit them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import registry
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.generators.sample import sample_dag_case

GOLDEN_PATH = Path(__file__).parent / "goldens" / "strategy_schedules.json"

#: canonical resource sets (the sample DAG prices r1..r4; the random case
#: prices lazily per resource identity, so any fixed list is canonical)
SAMPLE_RESOURCES = ("r1", "r2", "r3")
RANDOM_RESOURCES = ("r1", "r2", "r3", "r4")


def _random_case():
    return generate_random_case(RandomDAGParameters(v=20), seed=7)


def _render(schedule) -> dict:
    return {
        "assignments": schedule.to_dict(),
        "duplicates": schedule.duplicates_to_dict(),
        "makespan": schedule.makespan(),
    }


def _build_all() -> dict:
    sample = sample_dag_case()
    random_case = _random_case()
    out: dict = {}
    for name in registry.available("scheduler"):
        scheduler = registry.make("scheduler", name)
        out[name] = {
            "sample": _render(
                scheduler.schedule(
                    sample.workflow, sample.costs, list(SAMPLE_RESOURCES)
                )
            ),
            "random_v20_seed7": _render(
                scheduler.schedule(
                    random_case.workflow, random_case.costs, list(RANDOM_RESOURCES)
                )
            ),
        }
    return out


class TestGoldenSchedules:
    def test_every_strategy_matches_its_golden_schedule(self, request):
        actual = _build_all()
        if request.config.getoption("--regen-goldens"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        assert GOLDEN_PATH.is_file(), (
            f"{GOLDEN_PATH} missing — run pytest {__file__} --regen-goldens"
        )
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert set(actual) == set(golden), (
            "strategy set changed — regenerate the goldens (--regen-goldens) "
            f"and commit them: {sorted(set(actual) ^ set(golden))}"
        )
        for name in sorted(actual):
            assert actual[name] == golden[name], (
                f"strategy {name!r} no longer reproduces its golden schedule — "
                "if intentional, regenerate with --regen-goldens and re-bless "
                "affected benchmark baselines in the same PR"
            )

    def test_goldens_cover_json_roundtrip_exactly(self):
        """Golden floats survive the JSON round-trip bit for bit."""
        actual = _build_all()
        roundtrip = json.loads(json.dumps(actual))
        assert roundtrip == actual

    def test_sample_heft_golden_matches_paper_makespan(self):
        """The committed HEFT golden pins the paper's Fig. 5(a) result."""
        sample = sample_dag_case()
        schedule = registry.make("scheduler", "heft").schedule(
            sample.workflow, sample.costs, list(SAMPLE_RESOURCES)
        )
        assert schedule.makespan() == pytest.approx(80.0)
