"""Acceptance criteria on the canonical desk-scale rig.

Each test asserts one criterion at its stated tolerance and prints a
pass/fail line, so ``pytest tests/test_acceptance.py -v -s`` reads as the
acceptance report. The same checks back the ``evdeform verify`` command.
"""
import pytest

from evdeform.verify import CheckResult, _run_once, report_lines, run_all

SEED = 0


@pytest.fixture(scope="module")
def report():
    return {r.name: r for r in _run_once(SEED)}


def _emit(result: CheckResult):
    status = "PASS" if result.passed else "FAIL"
    figures = ", ".join(f"{k}={v:.6g}" for k, v in sorted(result.figures.items()))
    print(f"[{status}] {result.name}: {figures}")


def test_criterion_1_calibration_reprojection(report):
    """0.2 px noise, >=200 correspondences: mean < 0.3 px, std < 0.25 px, <60 s."""
    r = report["calibration_reprojection"]
    _emit(r)
    assert r.figures["correspondences"] >= 200
    assert r.figures["runtime_s"] < 60.0
    for cam in (0, 1, 2):
        assert r.figures[f"mean_px_cam{cam}"] < 0.3
        assert r.figures[f"std_px_cam{cam}"] < 0.25
    assert r.passed


def test_criterion_2_noiseless_consistency(report):
    """Noiseless: mean < 1e-4 px, focal within 0.5%, rotations < 0.05 deg,
    baseline ratio within 0.2%."""
    r = report["noiseless_consistency"]
    _emit(r)
    assert r.figures["mean_px"] < 1e-4
    assert r.figures["focal_rel_err"] < 0.005
    assert r.figures["pairwise_rot_deg"] < 0.05
    assert r.figures["baseline_ratio_rel_err"] < 0.002
    assert r.passed


def test_criterion_3_pole_distance(report):
    """1000 mm pole, baseline-anchored: max distance error < 0.1%, <30 s."""
    r = report["pole_distance"]
    _emit(r)
    assert r.figures["rel_err"] < 0.001
    assert r.figures["runtime_s"] < 30.0
    assert r.passed


def test_criterion_4_span_grid(report):
    """50 mm pitch grid under 0.3 px noise: 300 mm span within 1%."""
    r = report["span_grid"]
    _emit(r)
    assert r.figures["span_300_rel_err"] < 0.01
    for span in (150, 200, 250):
        assert f"span_{span}_rel_err" in r.figures
    assert r.passed


def test_criterion_5_deformation_sway(report):
    """18.2 mm sway: amplitude within 2%, per-axis RMSE < 0.5 mm, >=99%
    of samples under 1 px residual."""
    r = report["deformation_sway"]
    _emit(r)
    assert r.figures["amplitude_rel_err"] < 0.02
    for axis in "xyz":
        assert r.figures[f"rmse_{axis}_mm"] < 0.5
    assert r.figures["triangulated_fraction"] >= 0.99
    assert r.passed


def test_criterion_6_property_suite(report):
    """Rank-4, BA descent, Jacobians, undistortion, outliers, matching,
    reference invariance."""
    r = report["property_suite"]
    _emit(r)
    assert r.figures["rank4_sigma5_over_sigma1"] < 1e-10
    assert r.figures["ba_monotonic_violations"] == 0
    assert r.figures["jacobian_max_rel_err"] < 1e-4
    assert r.figures["undistort_roundtrip_px"] < 1e-8
    assert r.figures["outlier_trials_exact"] == 50
    assert r.figures["matching_mismatches"] == 0
    assert r.figures["reference_invariance_rel"] < 1e-9
    assert r.passed


def test_criterion_7_determinism(report):
    """A second run with the same seed reproduces every figure of merit."""
    second = {r.name: r for r in _run_once(SEED)}
    divergence = 0.0
    for name, r in report.items():
        for key, value in r.figures.items():
            if key == "runtime_s":
                continue
            divergence = max(divergence, abs(value - second[name].figures[key]))
    result = CheckResult("determinism", divergence < 1e-12,
                         {"max_figure_divergence": divergence})
    _emit(result)
    assert divergence < 1e-12


def test_verify_driver_matches(report):
    """run_all aggregates the same checks the CLI `verify` command prints."""
    results = run_all(seed=SEED, check_determinism=False)
    names = [r.name for r in results]
    assert names == [
        "calibration_reprojection",
        "noiseless_consistency",
        "pole_distance",
        "span_grid",
        "deformation_sway",
        "property_suite",
    ]
    assert all(r.passed for r in results)


def test_report_lines_show_every_figure():
    """Each check's line carries all of its figures, in key order."""
    results = [
        CheckResult("pole_distance", True, {
            "rel_err": 4e-4, "rel_err_median": 9e-5, "rel_err_p95": 2.5e-4,
            "max_distance_mm": 1000.4, "paired_samples": 600.0, "runtime_s": 0.5,
        }),
        CheckResult("deformation_sway", False, {
            "amplitude_mm": 18.2, "amplitude_rel_err": 0.002, "rmse_x_mm": 0.14,
            "rmse_y_mm": 0.14, "rmse_z_mm": 0.13, "triangulated_fraction": 1.0,
            "truth_amplitude_mm": 18.2,
        }),
    ]
    lines = report_lines(results)
    assert lines == [
        "[PASS] pole_distance     max_distance_mm=1000.4, paired_samples=600, "
        "rel_err=0.0004, rel_err_median=9e-05, rel_err_p95=0.00025, runtime_s=0.5",
        "[FAIL] deformation_sway  amplitude_mm=18.2, amplitude_rel_err=0.002, "
        "rmse_x_mm=0.14, rmse_y_mm=0.14, rmse_z_mm=0.13, triangulated_fraction=1, "
        "truth_amplitude_mm=18.2",
    ]
