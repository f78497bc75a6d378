"""Small shared utilities used across the :mod:`repro` package.

The utilities are deliberately dependency free (NumPy only) so that every
other subsystem — workflow model, resource model, schedulers, simulation —
can rely on them without import cycles.
"""

from repro.utils.rng import RandomSource, derive_seed, spawn_rng, spawn_uniforms
from repro.utils.ordering import argsort_stable, stable_min, topological_order

__all__ = [
    "RandomSource",
    "derive_seed",
    "spawn_rng",
    "spawn_uniforms",
    "argsort_stable",
    "stable_min",
    "topological_order",
]
