"""Experiment harness, reporting helpers and the oil-field case study."""

from .experiments import (
    ABLATION_NAMES,
    SYSTEM_NAMES,
    ExperimentOutcome,
    ExperimentSpec,
    build_client,
    run_experiment,
)
from .reporting import SCHEMA_VERSION, Table, format_cdf, result_payload, save_json
from .field_study import FieldDevice, FieldStudyResult, run_field_study
from .trajectory_metrics import TrajectoryErrors, evaluate_trajectory, umeyama_alignment

__all__ = [
    "ABLATION_NAMES",
    "SYSTEM_NAMES",
    "ExperimentOutcome",
    "ExperimentSpec",
    "build_client",
    "run_experiment",
    "SCHEMA_VERSION",
    "Table",
    "format_cdf",
    "result_payload",
    "save_json",
    "FieldDevice",
    "FieldStudyResult",
    "run_field_study",
    "TrajectoryErrors",
    "evaluate_trajectory",
    "umeyama_alignment",
]
