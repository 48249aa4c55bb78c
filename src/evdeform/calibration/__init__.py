"""Self-calibration of the camera array from corresponding points."""

from .bundle import BundleResult, bundle_adjust
from .cleanup import distortion_gate, reject_outliers
from .kruppa import solve_kruppa_focal
from .pipeline import (
    CalibrationConfig,
    CalibrationResult,
    IterationRecord,
    calibrate,
    write_iteration_log,
)

__all__ = [
    "BundleResult",
    "CalibrationConfig",
    "CalibrationResult",
    "IterationRecord",
    "bundle_adjust",
    "calibrate",
    "distortion_gate",
    "reject_outliers",
    "solve_kruppa_focal",
    "write_iteration_log",
]
