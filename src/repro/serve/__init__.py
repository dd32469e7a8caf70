"""Shot-parallel RTM service: fault-tolerant survey scheduling.

The operational layer of the reproduction: admit surveys into a bounded
shot queue (:mod:`repro.serve.queue`), shard shots across simulated
worker nodes under the resilience ladder (:mod:`repro.serve.service`),
serve duplicates from a content-keyed result cache
(:mod:`repro.serve.cache`), and verify every run bitwise against the
fault-free serial stack (:mod:`repro.serve.campaign`, the
``python -m repro serve`` CLI).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("CachedShot", "ResultCache", "ShotKey", "model_hash"),
    "campaign": (
        "DEFAULT_SHOTS", "DEFAULT_WORKERS", "SERVE_CASES", "run_serve_case", "run_serve_command",
        "run_serve_sweep", "serve_case_config",
    ),
    "queue": (
        "AdmissionError", "PoisonShotError", "QueueFullError", "ShotJob", "ShotQueue",
        "SurveyRejectedError",
    ),
    "service": ("ServiceResult", "SurveyScheduler", "WorkerNode"),
})
