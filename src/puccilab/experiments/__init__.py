"""Scenario runners, config parsing, and report emission."""

from .config import ScenarioConfig, load_config, parse_config
from .fields import make_field
from .scenarios import (
    run_boundary_study,
    run_counterexample,
    run_ellipticity_sweep,
    run_p_sweep,
)

__all__ = [
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "make_field",
    "run_counterexample",
    "run_p_sweep",
    "run_ellipticity_sweep",
    "run_boundary_study",
]
