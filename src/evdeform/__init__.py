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
    choose_accumulation_count,
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
    project,
    undistort,
)
from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    MeasurementMatrix,
    ProjectiveReconstruction,
    bundle_adjust,
    calibrate,
    euclidean_upgrade,
    projective_factorize,
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
    "MeasurementMatrix",
    "ProjectiveReconstruction",
    "RigCalibration",
    "ScenarioConfig",
    "anchor_scale",
    "bundle_adjust",
    "calibrate",
    "calibration_profile",
    "choose_accumulation_count",
    "estimate_fundamental_ransac",
    "euclidean_upgrade",
    "extract_center_sequence",
    "fundamental_from_calibrated",
    "match_corresponding",
    "measure_deformation",
    "measurement_profile",
    "preset_paper_rig",
    "project",
    "projective_factorize",
    "rebase_extrinsics",
    "reject_outliers",
    "simulate",
    "solve_kruppa_focal",
    "triangulate",
    "undistort",
]
