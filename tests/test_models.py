"""Model right-hand sides, initial conditions and the sensitivity block."""

import math

import numpy as np
import pytest

from itmflow import (AUGMENTED_SYSTEM, SIMILARITY_SYSTEM, IvpSpec,
                     StepControl, augmented_ic, blasius_star_ic,
                     integrate_adaptive, sakiadis_star_ic)


class TestSimilarityRhs:
    def test_zero_stream_function(self):
        out = SIMILARITY_SYSTEM.rhs(0.0, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_direct_evaluation(self):
        out = SIMILARITY_SYSTEM.rhs(0.0, np.array([2.0, 1.0, 3.0]))
        assert np.allclose(out, [1.0, 3.0, -3.0])

    def test_zero_curvature(self):
        out = SIMILARITY_SYSTEM.rhs(0.0, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0, 0.0])


class TestAugmentedRhs:
    def test_zeros(self):
        assert np.allclose(AUGMENTED_SYSTEM.rhs(0.0, np.zeros(6)), np.zeros(6))

    def test_direct_substitution(self):
        out = AUGMENTED_SYSTEM.rhs(0.0, np.array([0.0, 1.0, -1.0, 0.0, 0.5, 0.0]))
        assert np.allclose(out, [1.0, -1.0, 0.0, 0.5, 0.0, 0.0])

    def test_embeds_similarity_rhs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = rng.normal(size=6)
            assert np.array_equal(AUGMENTED_SYSTEM.rhs(0.0, state)[:3],
                                  SIMILARITY_SYSTEM.rhs(0.0, state[:3]))


@pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, AUGMENTED_SYSTEM],
                         ids=["similarity", "augmented"])
def test_rhs_returns_python_floats(system):
    # The march's float arithmetic stays off numpy only while the model
    # right-hand sides hand back plain floats, never numpy scalars.
    out = system.rhs(0.0, [0.1 * (i + 1) for i in range(system.dim)])
    assert len(out) == system.dim
    assert all(type(v) is float for v in out)


class TestInitialConditions:
    def test_blasius_unit_curvature(self):
        assert np.array_equal(blasius_star_ic(), [0.0, 0.0, 1.0])

    def test_blasius_slope_monotone(self):
        spec = IvpSpec(0.0, 6.0, blasius_star_ic(), SIMILARITY_SYSTEM)
        traj = integrate_adaptive(spec)
        assert np.all(np.diff(traj.states[:, 1]) > 0)

    @pytest.mark.parametrize("h_star, sign, expected", [
        (2.5, -1, [0.0, 1.5811388300841898, -1.0]),
        (1.0, -1, [0.0, 1.0, -1.0]),
        (4.0, 1, [0.0, 2.0, 1.0]),
    ])
    def test_sakiadis_star_ic(self, h_star, sign, expected):
        assert np.allclose(sakiadis_star_ic(h_star, sign), expected, atol=1e-15)

    def test_sakiadis_ic_validation(self):
        with pytest.raises(ValueError):
            sakiadis_star_ic(0.0)
        with pytest.raises(ValueError):
            sakiadis_star_ic(-2.5)
        with pytest.raises(ValueError):
            sakiadis_star_ic(2.5, sign=2)

    @pytest.mark.parametrize("h_star, expected", [
        (1.0, [0.0, 1.0, -1.0, 0.0, 0.5, 0.0]),
        (4.0, [0.0, 2.0, -1.0, 0.0, 0.25, 0.0]),
    ])
    def test_augmented_ic(self, h_star, expected):
        assert np.allclose(augmented_ic(h_star), expected, atol=1e-15)

    def test_augmented_ic_slope_sensitivity(self):
        assert augmented_ic(2.5)[4] == pytest.approx(0.31622776601683794, abs=1e-15)

    def test_augmented_ic_validation(self):
        with pytest.raises(ValueError):
            augmented_ic(0.0)


def _far_state(h_star, eta_inf, control):
    spec = IvpSpec(0.0, eta_inf, sakiadis_star_ic(h_star), SIMILARITY_SYSTEM)
    return integrate_adaptive(spec, control).states[-1]


class TestSensitivityBlock:
    @pytest.mark.parametrize("h_star, eta_inf", [(2.0, 6.0), (2.5, 10.0), (3.2, 7.5)])
    def test_matches_central_differences(self, h_star, eta_inf, tight_control):
        spec = IvpSpec(0.0, eta_inf, augmented_ic(h_star), AUGMENTED_SYSTEM)
        aug = integrate_adaptive(spec, tight_control).states[-1]
        delta = 1e-5 * h_star
        hi = _far_state(h_star + delta, eta_inf, tight_control)
        lo = _far_state(h_star - delta, eta_inf, tight_control)
        fd_slope = (hi[1] - lo[1]) / (2.0 * delta)
        fd_curv = (hi[2] - lo[2]) / (2.0 * delta)
        assert aug[4] == pytest.approx(fd_slope, rel=1e-4)
        assert aug[5] == pytest.approx(fd_curv, rel=1e-4)

    def test_leading_block_tracks_plain_trajectory(self):
        control = StepControl()
        h_star = 2.5
        spec6 = IvpSpec(0.0, 10.0, augmented_ic(h_star), AUGMENTED_SYSTEM)
        aug = integrate_adaptive(spec6, control).states[-1]
        plain = _far_state(h_star, 10.0, control)
        assert np.max(np.abs(aug[:3] - plain)) <= 1e-6
