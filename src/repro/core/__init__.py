"""The paper's applications: seismic modeling and Reverse Time Migration.

Host drivers (:func:`run_modeling`, :func:`run_rtm`) execute the physics in
NumPy following the paper's Algorithm 1. GPU drivers wrap the same stepping
with the OpenACC offload pipeline of the paper's Figure 4 (data allocation ->
forward -> offload/upload swap -> backward -> store image) and return
modelled device timings; estimate drivers
(:func:`estimate_modeling`, :func:`estimate_rtm`) run the pipeline without
physics so the paper's full-size grids can be timed.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "ModelingConfig", "RTMConfig", "GPUOptions", "ModelingResult", "RTMResult", "GpuTimes",
    ),
    "platform": ("Platform", "PLATFORMS"),
    "snapshots": ("SnapshotStore", "default_snap_period"),
    "imaging": ("cross_correlation_update", "normalize_image", "mute_shallow"),
    "inventory": ("field_inventory", "device_resident_bytes"),
    "pipeline": ("OffloadPipeline",),
    "modeling": ("run_modeling", "estimate_modeling"),
    "rtm": ("run_rtm", "estimate_rtm"),
    "multigpu": ("MultiGpuTimes", "estimate_multi_gpu_modeling", "scaling_study"),
    "survey": ("SurveyResult", "run_survey", "shot_line"),
    "offload_plan": ("OffloadPlan", "plan_offload"),
    "checkpointing": (
        "CheckpointPlan", "CheckpointedCost", "plan_checkpoints", "checkpointed_rtm_cost",
    ),
    "reference": ("cpu_modeling_time", "cpu_rtm_time", "ReferenceTimes"),
})
