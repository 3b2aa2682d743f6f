"""Desk-scale electrophysiological source imaging toolkit."""

from .geometry import (
    LeadField,
    RegionSet,
    SourceSpace,
    build_lead_field,
    build_synthetic_source_space,
    grow_patch,
    load_lead_field,
    save_lead_field,
)
from .nmm import (
    JansenRitParams,
    PairedSample,
    SimulationConfig,
    add_noise,
    generate_dataset,
    generate_source_activity,
    project_forward,
    simulate_jansen_rit,
)
from .patches import extract_patches, merge_patches, normalize_fragment
from .model import FairConfig, forward, init_params, loss, train
from .metrics import MetricReport, evaluate, nmse, precision_recall
from .sloreta import sloreta_solve

__all__ = [
    "LeadField", "RegionSet", "SourceSpace",
    "build_lead_field", "build_synthetic_source_space", "grow_patch",
    "load_lead_field", "save_lead_field",
    "JansenRitParams", "PairedSample", "SimulationConfig",
    "add_noise", "generate_dataset", "generate_source_activity",
    "project_forward", "simulate_jansen_rit",
    "extract_patches", "merge_patches", "normalize_fragment",
    "FairConfig", "forward", "init_params", "loss", "train",
    "MetricReport", "evaluate", "nmse", "precision_recall",
    "sloreta_solve",
]
