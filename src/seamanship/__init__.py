"""Quantifying seamanship from recorded vessel traffic.

The package computes collision, grounding, and scenario risk over time for
vessels in a traffic scene, searches for the lowest-risk feasible maneuver
sequence, and grades recorded behavior against that best-achievable
baseline. See the ``seamanship`` CLI for the file-based pipeline.
"""

from .geometry import (
    ArenaSpec,
    DomainParams,
    DomainSpec,
    LocalPoint,
    StateArrays,
    VesselState,
    VesselTrack,
    VesselType,
    ddv,
    find_tdv,
    make_domain,
    predict_state,
    project,
    scale_factor,
    unproject,
)
from .ingest import (
    AisSchema,
    IngestParams,
    Scenario,
    build_scenario,
    load_chart,
    parse_ais,
    resample,
)
from .planner import (
    Hyperparameters,
    KinodynamicParams,
    PathResult,
    branch_and_bound,
    exhaustive_search,
    sr_star_series,
    step_kinodynamics,
)
from .risk import (
    ObstacleSet,
    RiskParams,
    RiskSeries,
    compose_scenario_risk,
    compute_risk_series,
    mutual_collision_risk,
    overall_collision_risk,
    risk_index,
    scenario_risks,
)
from .scoring import (
    GssReport,
    ScoreParams,
    gss,
    invert_risk,
    normalize_risk,
    normalize_series,
    score_series,
)
from .speedmodel import (
    EncounterEvent,
    SpeedChangeModel,
    detect_encounters,
    fit_model,
    probabilistic_cr,
    silverman_bandwidth,
)

__version__ = "0.1.0"

__all__ = [
    "ArenaSpec",
    "AisSchema",
    "DomainParams",
    "DomainSpec",
    "EncounterEvent",
    "GssReport",
    "Hyperparameters",
    "IngestParams",
    "KinodynamicParams",
    "LocalPoint",
    "ObstacleSet",
    "PathResult",
    "RiskParams",
    "RiskSeries",
    "Scenario",
    "ScoreParams",
    "SpeedChangeModel",
    "StateArrays",
    "VesselState",
    "VesselTrack",
    "VesselType",
    "branch_and_bound",
    "build_scenario",
    "compose_scenario_risk",
    "compute_risk_series",
    "ddv",
    "detect_encounters",
    "exhaustive_search",
    "find_tdv",
    "fit_model",
    "gss",
    "invert_risk",
    "load_chart",
    "make_domain",
    "mutual_collision_risk",
    "normalize_risk",
    "normalize_series",
    "overall_collision_risk",
    "parse_ais",
    "predict_state",
    "probabilistic_cr",
    "project",
    "resample",
    "risk_index",
    "scale_factor",
    "scenario_risks",
    "score_series",
    "silverman_bandwidth",
    "sr_star_series",
    "step_kinodynamics",
    "unproject",
]
