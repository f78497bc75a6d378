"""Experiment parameter grids (paper Tables 2 and 5).

``RANDOM_DAG_GRID`` reproduces Table 2 (parametric random DAGs) and
``APPLICATION_GRID`` reproduces Table 5 (BLAST and WIEN2K).  The full cross
products are enormous (the paper runs 500,000 cases); the configuration
dataclasses therefore support deterministic *sampling* of the grid so that
benchmarks can run a representative subset on a laptop, while the full
grid stays one call away: a grid is a set of axes for
:func:`~repro.experiments.sweep.sweep_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.generators.blast import generate_blast_case
from repro.generators.costs import WorkflowCase
from repro.generators.montage import generate_montage_case
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.generators.wien2k import generate_wien2k_case
from repro.resources.dynamics import ResourceChangeModel
from repro.utils.rng import spawn_rng

__all__ = [
    "RANDOM_DAG_GRID",
    "APPLICATION_GRID",
    "RandomExperimentConfig",
    "ApplicationExperimentConfig",
]

#: Paper Table 2 — parameter values for randomly generated DAGs.
RANDOM_DAG_GRID: Dict[str, Tuple] = {
    "v": (20, 40, 60, 80, 100),
    "ccr": (0.1, 0.5, 1.0, 5.0, 10.0),
    "out_degree": (0.1, 0.2, 0.3, 0.4, 1.0),
    "beta": (0.1, 0.25, 0.5, 0.75, 1.0),
    "resources": (10, 20, 30, 40, 50),
    "interval": (400, 800, 1200, 1600),
    "fraction": (0.10, 0.15, 0.20, 0.25),
}

#: Paper Table 5 — parameter values for BLAST and WIEN2K DAGs.
APPLICATION_GRID: Dict[str, Tuple] = {
    "parallelism": (200, 400, 600, 800, 1000),
    "ccr": (0.1, 0.5, 1.0, 5.0, 10.0),
    "beta": (0.1, 0.25, 0.5, 0.75, 1.0),
    "resources": (20, 40, 60, 80, 100),
    "interval": (400, 800, 1200, 1600),
    "fraction": (0.10, 0.15, 0.20, 0.25),
}

_APPLICATION_GENERATORS = {
    "blast": generate_blast_case,
    "wien2k": generate_wien2k_case,
    "montage": generate_montage_case,
}


class _ScenarioConfigMixin:
    """Scenario-engine wiring shared by the experiment configs.

    A config carries the scenario as data (registry name + parameter
    overrides) so configs stay frozen, hashable and picklable; the mixin
    turns that data into live objects for the runner.
    """

    def build_scenario(self):
        """The configured scenario instance, or ``None``."""
        if self.scenario is None:
            return None
        from repro import registry

        return registry.make("scenario", self.scenario, **dict(self.scenario_params))

    def build_resource_model(self) -> ResourceChangeModel:
        """The paper's (R, Δ, δ) pool dynamics of this point."""
        return ResourceChangeModel(
            initial_size=self.resources,
            interval=self.interval,
            fraction=self.fraction,
        )

    def as_params(self) -> Dict[str, object]:
        """The point's coordinates in its paper grid (Table 2 or 5) and its
        instance, plus the scenario when one drives the dynamics."""
        params = {name: getattr(self, name) for name in self.coordinates}
        if self.scenario is not None:
            params["scenario"] = self.scenario
            params["scenario_params"] = dict(self.scenario_params)
        return params

    def to_experiment_case(self):
        """An :class:`~repro.experiments.runner.ExperimentCase` for this point."""
        from repro.experiments.runner import ExperimentCase

        return ExperimentCase(
            case=self.build_case(),
            resource_model=self.build_resource_model(),
            scenario=self.build_scenario(),
            scenario_seed=self.seed,
        )


@dataclass(frozen=True)
class RandomExperimentConfig(_ScenarioConfigMixin):
    """One fully specified random-DAG experiment point."""

    coordinates: ClassVar[Tuple[str, ...]] = (*RANDOM_DAG_GRID, "instance")

    v: int = 40
    ccr: float = 1.0
    out_degree: float = 0.2
    beta: float = 0.5
    resources: int = 10
    interval: float = 400.0
    fraction: float = 0.15
    #: ω_DAG is calibrated so simulated makespans land in the same range as
    #: the paper's reported averages (a few thousand logical time units),
    #: which keeps the number of resource-change events per run comparable.
    omega_dag: float = 300.0
    instance: int = 0
    seed: int = 0
    #: optional scenario-engine dynamics (registry name + keyword overrides);
    #: when set, sweeps materialise the scenario instead of the (R, Δ, δ)
    #: model — see :mod:`repro.scenarios`.
    scenario: Optional[str] = None
    scenario_params: Tuple[Tuple[str, object], ...] = ()

    def build_case(self) -> WorkflowCase:
        params = RandomDAGParameters(
            v=self.v,
            out_degree=self.out_degree,
            ccr=self.ccr,
            beta=self.beta,
            omega_dag=self.omega_dag,
        )
        return generate_random_case(params, seed=self.seed, instance=self.instance)


@dataclass(frozen=True)
class ApplicationExperimentConfig(_ScenarioConfigMixin):
    """One fully specified application (BLAST / WIEN2K / Montage) point."""

    coordinates: ClassVar[Tuple[str, ...]] = (
        "application", *APPLICATION_GRID, "instance"
    )

    application: str = "blast"
    parallelism: int = 200
    ccr: float = 1.0
    beta: float = 0.5
    resources: int = 40
    interval: float = 800.0
    fraction: float = 0.15
    #: see RandomExperimentConfig.omega_dag — calibrated to the paper's
    #: makespan range so Δ intervals per run are comparable.
    omega_dag: float = 300.0
    instance: int = 0
    seed: int = 0
    #: see :attr:`RandomExperimentConfig.scenario`
    scenario: Optional[str] = None
    scenario_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.application not in _APPLICATION_GENERATORS:
            raise ValueError(
                f"unknown application {self.application!r}; "
                f"choose from {sorted(_APPLICATION_GENERATORS)}"
            )

    def build_case(self) -> WorkflowCase:
        generator = _APPLICATION_GENERATORS[self.application]
        case_seed = int(
            spawn_rng(self.seed, self.application, self.parallelism, self.ccr,
                      self.beta, self.instance).integers(0, 2**62)
        )
        return generator(
            self.parallelism,
            ccr=self.ccr,
            beta=self.beta,
            omega_dag=self.omega_dag,
            seed=case_seed,
        )


def sample_random_grid(
    count: int,
    *,
    seed: int = 0,
    grid: Optional[Mapping[str, Sequence]] = None,
    instances: int = 1,
) -> List[RandomExperimentConfig]:
    """Deterministically sample ``count`` points from the Table 2 grid."""
    grid = dict(grid or RANDOM_DAG_GRID)
    rng = spawn_rng(seed, "sample-random-grid", count)
    configs: List[RandomExperimentConfig] = []
    for index in range(count):
        choice = {
            key: values[int(rng.integers(0, len(values)))]
            for key, values in grid.items()
        }
        for instance in range(instances):
            configs.append(
                RandomExperimentConfig(
                    v=int(choice["v"]),
                    ccr=float(choice["ccr"]),
                    out_degree=float(choice["out_degree"]),
                    beta=float(choice["beta"]),
                    resources=int(choice["resources"]),
                    interval=float(choice["interval"]),
                    fraction=float(choice["fraction"]),
                    instance=instance,
                    seed=seed + index,
                )
            )
    return configs


def sample_application_grid(
    application: str,
    count: int,
    *,
    seed: int = 0,
    grid: Optional[Mapping[str, Sequence]] = None,
    instances: int = 1,
) -> List[ApplicationExperimentConfig]:
    """Deterministically sample ``count`` points from the Table 5 grid."""
    grid = dict(grid or APPLICATION_GRID)
    rng = spawn_rng(seed, "sample-application-grid", application, count)
    configs: List[ApplicationExperimentConfig] = []
    for index in range(count):
        choice = {
            key: values[int(rng.integers(0, len(values)))]
            for key, values in grid.items()
        }
        for instance in range(instances):
            configs.append(
                ApplicationExperimentConfig(
                    application=application,
                    parallelism=int(choice["parallelism"]),
                    ccr=float(choice["ccr"]),
                    beta=float(choice["beta"]),
                    resources=int(choice["resources"]),
                    interval=float(choice["interval"]),
                    fraction=float(choice["fraction"]),
                    instance=instance,
                    seed=seed + index,
                )
            )
    return configs
