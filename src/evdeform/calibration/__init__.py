"""Self-calibration of the camera array from corresponding points."""

from .bundle import BundleOptions, BundleResult, bundle_adjust
from .cleanup import RejectionReport, distortion_gate, reject_outliers
from .factorization import (
    MeasurementMatrix,
    ProjectiveReconstruction,
    projective_factorize,
)
from .kruppa import solve_kruppa_focal
from .pipeline import (
    CalibrationConfig,
    CalibrationResult,
    IterationRecord,
    calibrate,
    write_iteration_log,
)
from .upgrade import EuclideanUpgrade, UpgradeResult, euclidean_upgrade

__all__ = [
    "BundleOptions",
    "BundleResult",
    "CalibrationConfig",
    "CalibrationResult",
    "EuclideanUpgrade",
    "IterationRecord",
    "MeasurementMatrix",
    "ProjectiveReconstruction",
    "RejectionReport",
    "UpgradeResult",
    "bundle_adjust",
    "calibrate",
    "distortion_gate",
    "euclidean_upgrade",
    "projective_factorize",
    "reject_outliers",
    "solve_kruppa_focal",
    "write_iteration_log",
]
