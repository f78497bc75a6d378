"""Composable scenarios of adversarial grid dynamics.

See :mod:`repro.scenarios.base` for the engine (event streams, validation,
materialisation into pools and performance profiles) and
:mod:`repro.scenarios.library` for the named scenarios the experiment
configs and the ``repro`` CLI accept.
"""

from repro.scenarios.base import (
    ComposedScenario,
    PerformanceProfile,
    ScaledCostModel,
    Scenario,
    ScenarioContext,
    ScenarioError,
    ScenarioEvent,
    ScenarioRun,
    compose,
    materialize,
    validate_events,
)
from repro.scenarios.library import (
    ChurnScenario,
    DegradationScenario,
    DepartureScenario,
    JoinBurstScenario,
    LoadSpikeScenario,
    PaperJoinScenario,
    StaticScenario,
    register_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioContext",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioRun",
    "ComposedScenario",
    "PerformanceProfile",
    "ScaledCostModel",
    "compose",
    "materialize",
    "validate_events",
    "StaticScenario",
    "PaperJoinScenario",
    "DepartureScenario",
    "JoinBurstScenario",
    "ChurnScenario",
    "DegradationScenario",
    "LoadSpikeScenario",
    "register_scenario",
]
