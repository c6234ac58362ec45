"""Gamma sweeps: grids, bracket detection and verdicts."""

import math
import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from itmflow import (DegenerateFarFieldError, IntegrationError, ItmConfig, ScanFailedError,
                     ScanGrid, ScanReport, ScanSample, StepControl, StepLimitError,
                     evaluate_gamma_at, integrate_adaptive, scan, solve_sakiadis)
from itmflow.scan import _brackets_of, _verdict_of

DEFAULT_GRID = ScanGrid(h_min=0.5, h_max=20.0, count=40)


@pytest.fixture(scope="module")
def negative_branch_report():
    return scan(DEFAULT_GRID, -1)


@pytest.fixture(scope="module")
def positive_branch_report():
    return scan(DEFAULT_GRID, 1)


class TestGrid:
    def test_linear_points(self):
        pts = ScanGrid(1.0, 3.0, 5).points()
        assert np.allclose(pts, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_log_points_increasing_positive(self):
        pts = np.array(ScanGrid(0.5, 8.0, 7, spacing="logarithmic").points())
        assert np.all(pts > 0)
        assert np.all(np.diff(pts) > 0)
        assert pts[0] == 0.5 and pts[-1] == 8.0

    def test_log_points_stay_between_exact_ends(self):
        rng = random.Random(5)  # the random spans of the linear test below
        spans = []
        for _ in range(3000):
            h_min = rng.uniform(0.5, 1.0) * 10.0 ** rng.randint(-12, 12)
            h_max = h_min + rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-16, 14)
            if h_max > h_min:
                spans.append((h_min, h_max, rng.randint(2, 300)))
        assert len(spans) > 2000
        # 10.0 ** y rounds below h_min on the first of these (np.geomspace too),
        # and overflows at the upper end of the last.
        edges = [(6.189823135459457e+256, 6.189823135460264e+256, 9),
                 (1, 1.0000000000000002, 3), (5e-324, 2e-323, 8),
                 (1.7976931348623155e+308, 1.7976931348623157e+308, 3)]
        for i, (h_min, h_max, count) in enumerate(edges + spans):
            points = ScanGrid(h_min, h_max, count, spacing="logarithmic").points()
            assert len(points) == count and points[0] == h_min and points[-1] == h_max
            assert all(type(h) is float for h in points)
            assert all(a <= b for a, b in zip(points, points[1:])), (h_min, h_max, count)
            if i >= len(edges):
                # numpy's log10 and power may each differ from libm's by an ulp.  With
                # |log10(h*)| < 27 an ulp of it moves h* by at most 8.2e-15 relative.
                reference = np.geomspace(h_min, h_max, count)
                assert np.allclose(points, reference, rtol=4e-14, atol=0.0), (h_min, h_max, count)

    def test_linear_points_are_np_linspace_bit_for_bit(self):
        rng = random.Random(5)
        cases = [(5e-324, 2e-323, 8),  # subnormal span: numpy's step == 0 branch
                 (1, 3, 5), (0.5, 20.0, 40), (1e-300, 1.7e308, 1000),
                 (1, 1.0000000000000002, 3)]  # a span of one ulp repeats a point
        assert (2e-323 - 5e-324) / 7 == 0.0
        for _ in range(3000):
            h_min = rng.uniform(0.5, 1.0) * 10.0 ** rng.randint(-12, 12)
            h_max = h_min + rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-16, 14)
            if h_max > h_min:
                cases.append((h_min, h_max, rng.randint(2, 300)))
        assert len(cases) > 2000
        for h_min, h_max, count in cases:
            points = ScanGrid(h_min, h_max, count).points()
            assert points == np.linspace(h_min, h_max, count).tolist(), (h_min, h_max, count)
            assert all(type(h) is float for h in points)

    @pytest.mark.parametrize("kwargs", [
        {"h_min": 0.0, "h_max": 1.0, "count": 5},
        {"h_min": 2.0, "h_max": 1.0, "count": 5},
        {"h_min": 1.0, "h_max": 2.0, "count": 1},
        {"h_min": 1.0, "h_max": 2.0, "count": 5, "spacing": "cubic"},
        {"h_min": 1.0, "h_max": math.inf, "count": 5},
        {"h_min": 0.5, "h_max": 3.5, "count": 2.5},
        {"h_min": 0.5, "h_max": 3.5, "count": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScanGrid(**kwargs)


class TestSettings:
    def test_boundary_and_step_control_reach_every_probe(self):
        control = StepControl(abs_tol=1e-8, rel_tol=1e-8)
        report = scan(ScanGrid(2.5, 3.5, 2), 1, eta_inf_star=8.0, step_control=control)
        config = ItmConfig(sign=1, eta_inf_star=8.0, step_control=control)
        for sample in report.samples:
            assert sample.gamma == evaluate_gamma_at(sample.h_star, config).gamma

    @pytest.mark.parametrize("eta_inf_star", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_truncated_boundary(self, eta_inf_star):
        with pytest.raises(ValueError, match="eta_inf_star must be positive and finite"):
            scan(ScanGrid(2.5, 3.5, 2), -1, eta_inf_star)


class TestVerdicts:
    def test_negative_branch_has_unique_zero(self, negative_branch_report):
        report = negative_branch_report
        assert report.verdict == "unique_zero"
        assert len(report.brackets) == 1
        lo, hi = report.brackets[0]
        assert 2.5 <= lo < hi <= 3.5

    def test_negative_branch_small_h_probes_fail(self, negative_branch_report):
        failed = [s.h_star for s in negative_branch_report.samples if s.failed]
        assert failed == [0.5, 1.0, 1.5, 2.0]
        for s in negative_branch_report.samples:
            if s.failed:
                assert math.isnan(s.gamma) and math.isnan(s.lam)
            else:
                assert math.isfinite(s.gamma) and math.isfinite(s.lam)

    def test_positive_branch_has_no_zero(self, positive_branch_report):
        report = positive_branch_report
        assert report.verdict == "no_zero"
        assert report.brackets == []
        assert not any(s.failed for s in report.samples)
        assert all(s.gamma < 0 for s in report.samples)

    def test_two_point_window_off_the_root(self):
        report = scan(ScanGrid(5.0, 6.0, 2), -1)
        assert report.verdict == "no_zero"
        assert report.brackets == []

    # Two step attempts end every probe uncertified, with a StepLimitError.
    STARVED = StepControl(max_steps=2)

    def test_all_probes_failing(self):
        with pytest.raises(ScanFailedError):
            scan(ScanGrid(0.5, 1.0, 2), -1, step_control=self.STARVED)

    @pytest.mark.parametrize("sign", [-1, -1.0])
    def test_all_failed_scan_names_its_sign(self, sign):
        message = r"^every probe failed on \[0\.5, 1\] with sign -1$"
        with pytest.raises(ScanFailedError, match=message):
            scan(ScanGrid(0.5, 1.0, 3), sign, step_control=self.STARVED)

    def test_all_failed_scan_is_an_integration_error(self):
        with pytest.raises(IntegrationError) as err:
            scan(ScanGrid(0.3, 1.0, 3), -1, step_control=self.STARVED)
        assert isinstance(err.value, ScanFailedError)

    def test_all_certified_scan_has_no_zero(self):
        # Every probe below h* ~ 2.27 is certified Gamma = +inf: no sign change.
        report = scan(ScanGrid(0.5, 1.0, 2), -1)
        assert report.verdict == "no_zero"
        assert report.brackets == []
        assert all(s.failed for s in report.samples)

    def test_degenerate_probe_is_recorded_as_failed(self):
        # At eta_inf* = 15 the h* = 2.5 probe has a degenerate far field.
        report = scan(ScanGrid(2.5, 3.5, 3), -1, 15.0)
        assert [s.failed for s in report.samples] == [True, False, False]
        assert all(math.isfinite(s.gamma) for s in report.samples[1:])

    def test_certified_probe_closes_bracket(self):
        # 2.246 lies below the failure threshold h* ~ 2.27 and 2.960 just above
        # the root: the certified probe (Gamma = +inf) brackets the root.
        report = scan(ScanGrid(0.8183684261020763, 28.66412517524943, 40), -1)
        assert report.verdict == "unique_zero"
        assert report.brackets == [(2.2463559516993765, 2.9603497144980264)]
        assert [s.failed for s in report.samples[:4]] == [True, True, True, False]
        assert math.isnan(report.samples[2].gamma)

    def test_failed_probe_inside_bracket_is_inconclusive(self, monkeypatch):
        def failing_at_3(h, config):
            if h == 3.0:
                raise StepLimitError("step budget exhausted", h)
            return evaluate_gamma_at(h, config)

        monkeypatch.setattr(sys.modules["itmflow.scan"], "evaluate_gamma_at", failing_at_3)
        report = scan(ScanGrid(2.5, 3.5, 5), -1)
        assert [s.failed for s in report.samples] == [False, False, True, False, False]
        assert report.brackets == [(2.75, 3.25)]
        assert report.verdict == "inconclusive"

    # Gamma lands exactly on zero at a grid point: the bracket is that point.
    @pytest.mark.parametrize("gammas, bracket, verdict", [
        ((0.5, 0.0, -0.5), (2.0, 2.0), "unique_zero"),
        ((0.5, 0.25, 0.0), (3.0, 3.0), "inconclusive"),
        ((0.0, -0.5, -0.7), (1.0, 1.0), "inconclusive"),
    ])
    def test_exact_zero_is_a_point_bracket(self, monkeypatch, gammas, bracket, verdict):
        gamma_at = dict(zip([1.0, 2.0, 3.0], gammas))
        monkeypatch.setattr(sys.modules["itmflow.scan"], "evaluate_gamma_at",
                            lambda h, config: SimpleNamespace(gamma=gamma_at[h], lam=1.0))
        report = scan(ScanGrid(1.0, 3.0, 3), -1)
        assert report.brackets == [bracket]
        assert report.verdict == verdict

    def test_edge_touching_bracket_is_inconclusive(self):
        # the sign change sits on the very first grid interval
        report = scan(ScanGrid(2.5, 3.0, 2), -1)
        assert len(report.brackets) == 1
        assert report.verdict == "inconclusive"


def every_point_scan(grid, sign, eta_inf_star=10.0, step_control=None):
    """Reference scan: every grid point is probed in grid order, and the
    brackets and verdict are read off the samples."""
    config = ItmConfig(sign=sign, eta_inf_star=eta_inf_star,
                       step_control=StepControl() if step_control is None else step_control)
    samples, signed = [], []
    for h in grid.points():
        try:
            evaluation = evaluate_gamma_at(h, config)
            samples.append(ScanSample(h, evaluation.gamma, evaluation.lam, False))
            signed.append((h, evaluation.gamma))
        except IntegrationError as exc:
            samples.append(ScanSample(h, math.nan, math.nan, True))
            if isinstance(exc, DegenerateFarFieldError):
                signed.append((h, math.inf))
    if not signed:
        raise ScanFailedError(
            f"every probe failed on [{grid.h_min:.6g}, {grid.h_max:.6g}] with sign {sign:+g}")
    brackets = _brackets_of(signed)
    return ScanReport(samples, brackets, _verdict_of(samples, brackets))


class TestCertificateSkip:
    """A sign -1 certificate at h* certifies every lower h*, so scan marches no
    grid point below its highest certified probe and reports what marching
    every point would."""

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
    @pytest.mark.parametrize("eta_inf_star", [6.0, 10.0, 15.0, 20.0])
    @pytest.mark.parametrize("tol", [None, 1e-8])
    def test_report_equals_every_point_scan(self, sign, spacing, eta_inf_star, tol):
        rng = random.Random(f"{sign} {spacing} {eta_inf_star} {tol}")
        # Grids across the failure threshold, then wholly below it.
        grids = [ScanGrid(rng.uniform(0.3, 2.0), rng.uniform(2.5, 30.0),
                          rng.randint(2, 40), spacing) for _ in range(2)]
        grids += [ScanGrid(0.3, 1.5, rng.randint(2, 12), spacing), ScanGrid(1.0, 3.0, 40, spacing)]
        control = None if tol is None else StepControl(abs_tol=tol, rel_tol=tol)
        for grid in grids:
            expected = every_point_scan(grid, sign, eta_inf_star, control)
            assert repr(scan(grid, sign, eta_inf_star, control)) == repr(expected), grid

    def test_marches_only_down_to_the_first_certificate(self, monkeypatch):
        marched = []

        def counting(spec, control=None):
            marched.append(spec.initial_state[1] ** 2)
            return integrate_adaptive(spec, control)

        monkeypatch.setattr(sys.modules["itmflow.solver"], "integrate_adaptive", counting)
        report = scan(ScanGrid(0.5, 3.5, 7), -1)
        assert marched == pytest.approx([3.5, 3.0, 2.5, 2.0])
        assert [s.failed for s in report.samples] == [True] * 4 + [False] * 3
        assert report.brackets == [(2.5, 3.0)]

    @pytest.mark.parametrize("sign, error", [(-1, StepLimitError), (1, DegenerateFarFieldError)])
    def test_other_failures_skip_nothing(self, monkeypatch, sign, error):
        # An uncertified failure says nothing about lower h*, nor does a sign +1
        # far-field failure: the monotone certificate holds on sign -1 only.
        probed = []

        def failing_at_top(h, config):
            probed.append(h)
            if h == 3.5:
                raise error("injected", h)
            return evaluate_gamma_at(h, config)

        monkeypatch.setattr(sys.modules["itmflow.scan"], "evaluate_gamma_at", failing_at_top)
        report = scan(ScanGrid(2.5, 3.5, 5), sign)
        assert probed == [3.5, 3.25, 3.0, 2.75, 2.5]
        assert [s.failed for s in report.samples] == [False] * 4 + [True]

    def test_other_exception_comes_from_the_highest_probe(self, monkeypatch):
        def raising(h, config):
            raise RuntimeError(h)

        monkeypatch.setattr(sys.modules["itmflow.scan"], "evaluate_gamma_at", raising)
        with pytest.raises(RuntimeError, match=r"^3\.5$"):
            scan(ScanGrid(2.5, 3.5, 5), -1)


class TestBracketQuality:
    def test_bracket_seeds_converging_secant(self, negative_branch_report):
        lo, hi = negative_branch_report.brackets[0]
        res = solve_sakiadis(ItmConfig(h0=lo, h1=hi))
        assert res.converged
        assert lo < res.final_h_star < hi

    def test_local_slope_is_steep(self, negative_branch_report):
        samples = [s for s in negative_branch_report.samples if not s.failed]
        lo, hi = negative_branch_report.brackets[0]
        pair = [s for s in samples if s.h_star in (lo, hi)]
        slope = (pair[1].gamma - pair[0].gamma) / (pair[1].h_star - pair[0].h_star)
        assert abs(slope) > 0.5

    def test_interpolant_crosses_zero_once_in_window(self, negative_branch_report):
        valid = [s for s in negative_branch_report.samples
                 if not s.failed and 2.5 <= s.h_star <= 3.5]
        signs = [s.gamma > 0 for s in valid]
        crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert crossings == 1


class TestDeterminism:
    def test_repeat_scan_identical(self):
        grid = ScanGrid(2.5, 3.5, 4)
        a = scan(grid, -1)
        b = scan(grid, -1)
        assert a.verdict == b.verdict
        assert a.brackets == b.brackets
        for sa, sb in zip(a.samples, b.samples):
            assert sa.h_star == sb.h_star
            assert sa.failed == sb.failed
            if not sa.failed:
                assert sa.gamma == sb.gamma and sa.lam == sb.lam

    def test_samples_sorted(self, negative_branch_report):
        h = [s.h_star for s in negative_branch_report.samples]
        assert h == sorted(h)
