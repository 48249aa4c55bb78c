"""Blinking-LED photogrammetry for multi event-camera arrays.

Marker-center extraction from asynchronous event streams, self-calibration
of the camera array from those centers alone, triangulation of marker
trajectories into 3D deformation series, and a synthetic event simulator
providing ground truth for every stage.
"""

__version__ = "0.1.0"

from .errors import EvdeformError
from .events import EventStream, read_stream, write_stream
from .extraction import (
    CenterObservation,
    Centers,
    Correspondences,
    CorrespondingPoint,
    ExtractionConfig,
    calibration_profile,
    extract_center_sequence,
    match_corresponding,
    measurement_profile,
)
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    FundamentalPair,
    estimate_fundamental_ransac,
    fundamental_from_calibrated,
    project_points,
    undistort_pixels,
)
from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    bundle_adjust,
    calibrate,
    reject_outliers,
    solve_kruppa_focal,
)
from .deformation import (
    DeformationSeries,
    RigCalibration,
    anchor_scale,
    measure_deformation,
    rebase_extrinsics,
    triangulate,
)
from .simulator import (
    GroundTruth,
    ScenarioConfig,
    preset_paper_rig,
    simulate,
)

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "CameraIntrinsics",
    "CameraPose",
    "CenterObservation",
    "Centers",
    "Correspondences",
    "CorrespondingPoint",
    "DeformationSeries",
    "EventStream",
    "EvdeformError",
    "ExtractionConfig",
    "FundamentalPair",
    "GroundTruth",
    "RigCalibration",
    "ScenarioConfig",
    "anchor_scale",
    "bundle_adjust",
    "calibrate",
    "calibration_profile",
    "estimate_fundamental_ransac",
    "extract_center_sequence",
    "fundamental_from_calibrated",
    "match_corresponding",
    "measure_deformation",
    "measurement_profile",
    "preset_paper_rig",
    "project_points",
    "rebase_extrinsics",
    "reject_outliers",
    "simulate",
    "solve_kruppa_focal",
    "triangulate",
    "undistort_pixels",
]
