"""Exception and warning types shared across the toolkit, and the JSON
readers that turn a malformed file into one of them."""

import json
from contextlib import contextmanager
from pathlib import Path


class EvdeformError(Exception):
    """Base class for all toolkit errors."""


# geometry

class PointBehindCamera(EvdeformError):
    """Projection requested for a point with non-positive depth."""


class NoConvergence(EvdeformError):
    """Iterative undistortion failed to reach its residual target."""


class DegenerateBaseline(EvdeformError):
    """Fundamental matrix requested for a (near) zero baseline."""


class InsufficientPoints(EvdeformError):
    """Too few correspondences for the requested estimator."""


class NoModel(EvdeformError):
    """Every minimal sample was degenerate; no model found."""


# event streams

class ParseError(EvdeformError):
    """Malformed event file."""


class BoundsError(EvdeformError):
    """Event pixel outside the declared sensor size."""


# marker extraction

class StreamTooShort(EvdeformError):
    """Fewer accepted events than one accumulation window."""


# self-calibration

class InsufficientCorrespondences(EvdeformError):
    """Not enough corresponding points to calibrate."""


class SingularConfiguration(EvdeformError):
    """Factorization failed (SVD breakdown or undefined epipole)."""


class DegenerateMotion(EvdeformError):
    """Focal-length system is rank deficient for this camera pair."""


class NegativeFocalSquared(EvdeformError):
    """Focal-length solve produced a non-positive or non-finite f²."""


class IndefiniteG(EvdeformError):
    """Upgrade quadric lost too much energy to PSD clamping."""


class CheiralityFailure(EvdeformError):
    """No global sign choice puts the majority of points in front."""


class DivergedBA(EvdeformError):
    """Bundle adjustment damping exceeded its ceiling with no accepted step."""


class AllRejected(EvdeformError):
    """Outlier rejection removed every correspondence."""


class CalibrationFailed(EvdeformError):
    """Calibration ended above the target reprojection error.

    Carries the calibration it reached in ``result`` when there is one.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# deformation

class UnknownCamera(EvdeformError):
    """Referenced camera id is not part of the rig."""


class EmptySeries(EvdeformError):
    """No triangulated sample survived the residual filter."""


class ZeroObservedDistance(EvdeformError):
    """Scale anchor pair has (near) zero separation."""


# simulator / config

class ConfigError(EvdeformError):
    """Scenario or pipeline configuration violates an invariant."""


class DegenerateTrajectoryWarning(UserWarning):
    """Marker trajectory is near-planar; self-calibration is ill-conditioned."""


class FieldOfViewWarning(UserWarning):
    """Marker leaves a camera's field of view for over 10% of the run."""


def read_json(path, error: type[EvdeformError]):
    """Parse a JSON file; text that is not UTF-8 JSON raises ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: invalid JSON: {exc}") from None


def read_object(path, error: type[EvdeformError]) -> dict:
    """Parse a JSON file that must hold an object."""
    doc = read_json(path, error)
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_document(path, error: type[EvdeformError], fmt: str) -> dict:
    """Parse a JSON document that must be an object whose "format" is fmt."""
    doc = read_object(path, error)
    if doc.get("format") != fmt:
        raise error(f"{path}: field 'format' is {doc.get('format')!r}, expected {fmt!r}")
    return doc


@contextmanager
def document_fields(path, error: type[EvdeformError]):
    """Report a missing or ill-typed field met while reading a parsed JSON
    document as ``error`` naming the path and the field."""
    try:
        yield
    except KeyError as exc:
        raise error(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise error(f"{path}: malformed field: {exc}") from None
