"""Root-finding drivers: secant/Newton transformation iterations and Topfer."""

import copy
import math
import pickle

import pytest

import itmflow.solver as solver_mod
from itmflow import (DegenerateFarFieldError, GammaEvaluation, IntegrationError,
                     ItmConfig, IvpSpec, RootFinderBreakdownError, ScanGrid,
                     StepControl, TopferAgreementError, Trajectory,
                     evaluate_gamma_at, scan, solve_blasius_topfer, solve_sakiadis)

# Iterate paths frozen from a rtol=atol=1e-12 reference integration; the
# driver at its default 1e-6 tolerance must track them to 1e-3 per row and
# 1e-5 at convergence.
SECANT_REF_H = [2.5, 3.5, 3.287172, 2.754191, 3.033897, 2.973826, 2.952581,
                2.954432, 2.954391, 2.954391]
NEWTON_REF_H = [2.5, 2.634888, 2.812401, 2.929233, 2.953635, 2.954391, 2.954391]
NEWTON_REF_LAM = [1.061732, 1.166846, 1.255130, 1.301740, 1.310767, 1.311043,
                  1.311043]
NEWTON_REF_SHEAR = [-0.835517, -0.629447, -0.505747, -0.453344, -0.444042,
                    -0.443761, -0.443761]

ROOT_H = 2.954391
ROOT_LAMBDA = 1.311043
ROOT_SHEAR = -0.443761


class TestEvaluateGamma:
    def test_seed_point(self):
        ev = evaluate_gamma_at(2.5)
        assert abs(ev.lam - 1.061732) <= 2e-6
        assert 0.967341 <= ev.gamma <= 0.967347

    def test_second_seed(self):
        ev = evaluate_gamma_at(3.5)
        assert abs(ev.lam - 1.475487) <= 2e-6
        assert abs(ev.gamma - (-0.261541)) <= 3e-6

    def test_near_root(self):
        ev = evaluate_gamma_at(2.954391)
        assert abs(ev.gamma) <= 1e-6
        assert abs(ev.lam - 1.311043) <= 2e-6

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            evaluate_gamma_at(-1.0)

    def test_newton_config_carries_derivative(self):
        ev = evaluate_gamma_at(2.5, ItmConfig(root_finder="newton"))
        assert 0.967341 <= ev.gamma <= 0.967347
        # frozen reference slope of the composed transformation function
        assert ev.dgamma_dh == pytest.approx(-7.1714526, rel=1e-4)

    @pytest.mark.parametrize("root_finder", ["secant", "newton"])
    @pytest.mark.parametrize("eta_inf_star", [10.0, 15.0])
    def test_reproduces_every_iterate_of_the_solve(self, root_finder, eta_inf_star):
        # evaluate_gamma_at is the solve's own probe, so each iterate's Gamma
        # and lambda come back bit for bit; at eta_inf* = 15 the seed h* = 2.5
        # is certified below the root.
        cfg = ItmConfig(root_finder=root_finder, eta_inf_star=eta_inf_star)
        res = solve_sakiadis(cfg)
        assert res.converged
        assert (res.iterates[0].gamma == math.inf) == (eta_inf_star == 15.0)
        evaluations = []
        for it in res.iterates:
            if it.gamma == math.inf:
                with pytest.raises(DegenerateFarFieldError):
                    evaluate_gamma_at(it.h_star, cfg)
                continue
            ev = evaluate_gamma_at(it.h_star, cfg)
            assert (ev.gamma, ev.lam) == (it.gamma, it.lam)
            evaluations.append(ev)
        if root_finder == "newton" and eta_inf_star == 10.0:
            # No bracket forms on the default Newton path: every step is Newton's.
            for it, ev, nxt in zip(res.iterates, evaluations, res.iterates[1:]):
                assert nxt.h_star == it.h_star - ev.gamma / ev.dgamma_dh

    def test_degenerate_far_field_is_an_integration_error(self):
        # At eta_inf* = 15 the h* = 2.5 probe ends with f' + sqrt(h*) <= 0.
        with pytest.raises(IntegrationError) as err:
            evaluate_gamma_at(2.5, ItmConfig(eta_inf_star=15.0))
        assert isinstance(err.value, DegenerateFarFieldError)
        assert not isinstance(err.value, ValueError)


class TestSecant:
    def test_default_solve(self):
        res = solve_sakiadis()
        assert res.converged
        assert res.gamma_evaluations == 10
        assert abs(res.final_h_star - ROOT_H) <= 1e-5
        assert abs(res.final_lambda - ROOT_LAMBDA) <= 1e-5
        assert abs(res.final_wall_shear - ROOT_SHEAR) <= 1e-5

    def test_iterate_path(self):
        res = solve_sakiadis()
        assert len(res.iterates) <= len(SECANT_REF_H)
        for it, ref in zip(res.iterates, SECANT_REF_H):
            assert it.h_star == pytest.approx(ref, abs=1e-3)
            assert it.j == res.iterates.index(it)

    def test_iterate_identity(self):
        res = solve_sakiadis()
        for it in res.iterates:
            assert it.wall_shear * it.lam ** 3 == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_tolerance_stops_at_seed_pair(self):
        res = solve_sakiadis(ItmConfig(gamma_tol=10.0))
        assert res.converged
        assert res.gamma_evaluations == 2
        assert res.final_h_star == 3.5

    def test_first_seed_converges(self):
        # both seeds are probed; the older one is accepted when only it converges
        res = solve_sakiadis(ItmConfig(h0=ROOT_H, h1=3.5, gamma_tol=1e-5))
        assert res.converged
        assert res.gamma_evaluations == 2
        assert res.final_h_star == ROOT_H
        assert res.final_wall_shear == res.iterates[0].wall_shear

    def test_single_iteration_still_probes_both_seeds(self):
        res = solve_sakiadis(ItmConfig(max_iterations=1))
        assert not res.converged
        assert res.gamma_evaluations == 2

    def test_positivity_safeguard_halves(self):
        # nearly flat Gamma at large h* throws the secant step negative
        cfg = ItmConfig(h0=19.0, h1=20.0, max_iterations=3)
        res = solve_sakiadis(cfg)
        assert not res.converged
        assert res.gamma_evaluations == 3
        assert res.iterates[2].h_star == 10.0

    def test_iteration_budget(self):
        res = solve_sakiadis(ItmConfig(max_iterations=3))
        assert not res.converged
        assert res.gamma_evaluations == 3
        assert res.final_h_star is None
        assert res.rescaled_solution is None

    def test_flat_gamma_breaks_down(self, monkeypatch):
        traj = Trajectory([(eta, 0.0, 1.0, -1.0) for eta in (0.0, 1.0)])

        def fake_evaluate(h_star, config):
            return GammaEvaluation(h_star, 0.0, 1.2, 0.5), traj

        monkeypatch.setattr(solver_mod, "_evaluate", fake_evaluate)
        with pytest.raises(RootFinderBreakdownError):
            solve_sakiadis()


class TestNewton:
    def test_default_solve(self):
        res = solve_sakiadis(ItmConfig(root_finder="newton"))
        assert res.converged
        assert res.gamma_evaluations == 7
        assert abs(res.final_h_star - ROOT_H) <= 1e-5
        assert abs(res.final_lambda - ROOT_LAMBDA) <= 1e-5
        assert abs(res.final_wall_shear - ROOT_SHEAR) <= 1e-5

    def test_iterate_path(self):
        res = solve_sakiadis(ItmConfig(root_finder="newton"))
        assert len(res.iterates) <= len(NEWTON_REF_H)
        for it, h_ref, lam_ref, shear_ref in zip(
                res.iterates, NEWTON_REF_H, NEWTON_REF_LAM, NEWTON_REF_SHEAR):
            assert it.h_star == pytest.approx(h_ref, abs=1e-3)
            assert it.lam == pytest.approx(lam_ref, abs=1e-3)
            assert it.wall_shear == pytest.approx(shear_ref, abs=1e-3)

    def test_seed_converges(self):
        res = solve_sakiadis(ItmConfig(root_finder="newton", h0=ROOT_H, h1=None,
                                       gamma_tol=1e-5))
        assert res.converged
        assert res.gamma_evaluations == 1
        assert res.final_h_star == ROOT_H

    def test_monotone_approach_from_left(self):
        res = solve_sakiadis(ItmConfig(root_finder="newton"))
        h = [it.h_star for it in res.iterates]
        assert all(b > a for a, b in zip(h, h[1:]))

    def test_agrees_with_secant(self):
        newton = solve_sakiadis(ItmConfig(root_finder="newton"))
        secant = solve_sakiadis()
        assert abs(newton.final_h_star - secant.final_h_star) <= 1e-6
        assert abs(newton.final_lambda - secant.final_lambda) <= 1e-6
        assert abs(newton.final_wall_shear - secant.final_wall_shear) <= 1e-6

    def test_vanishing_derivative_breaks_down(self, monkeypatch):
        traj = Trajectory([(eta, 0.0, 1.0, -1.0) for eta in (0.0, 1.0)])

        def fake_evaluate(h_star, config):
            return GammaEvaluation(h_star, 0.0, 1.2, 0.5, dgamma_dh=0.0), traj

        monkeypatch.setattr(solver_mod, "_evaluate", fake_evaluate)
        with pytest.raises(RootFinderBreakdownError):
            solve_sakiadis(ItmConfig(root_finder="newton"))


class TestCertifiedBracketing:
    """Probes certified below the root, the bracket they close, and the sign +1 stop."""

    # Secant seeds from a solve pool whose first probe lies near the pole of
    # Gamma: false position from Gamma = 141.7 crept along the far end.
    STALL = ItmConfig(h0=2.0681216542641616, h1=2.5405150702502732, eta_inf_star=15.0,
                      step_control=StepControl(abs_tol=1e-6, rel_tol=1e-6))

    @pytest.mark.parametrize("config", [ItmConfig(), ItmConfig(root_finder="newton")],
                             ids=["evaluate_gamma_at", "newton"])
    def test_probe_stops_at_certified_crossing(self, config):
        # f' + sqrt(h*) crosses zero near eta = 1.7 at h* = 0.5, on the
        # 3-equation and the 6-equation march alike; the march used to run on
        # to a step underflow near eta = 5.
        with pytest.raises(DegenerateFarFieldError) as err:
            evaluate_gamma_at(0.5, config)
        assert 1.5 < err.value.eta < 1.9
        assert "is not positive at eta = 1.68863" in str(err.value)

    def test_certified_seeds_converge(self):
        res = solve_sakiadis(ItmConfig(h0=0.5, h1=0.6))
        assert res.converged
        assert abs(res.final_wall_shear - ROOT_SHEAR) <= 1e-5
        first = res.iterates[0]
        assert first.gamma == math.inf
        assert math.isnan(first.lam) and math.isnan(first.wall_shear)
        # no bracket yet: a certified probe doubles h*
        assert [it.h_star for it in res.iterates[1:4]] == [0.6, 1.2, 2.4]

    def test_newton_from_certified_seed(self):
        res = solve_sakiadis(ItmConfig(root_finder="newton", h0=0.5, h1=None))
        assert res.converged
        assert abs(res.final_h_star - ROOT_H) <= 1e-5
        assert [it.h_star for it in res.iterates[:4]] == [0.5, 1.0, 2.0, 4.0]
        # Newton leaves the bracket [2, 4], whose lower end is certified: bisect
        assert res.iterates[4].h_star == 3.0

    def test_stall_case_converges(self):
        res = solve_sakiadis(self.STALL)
        assert res.converged
        assert res.gamma_evaluations <= 25
        assert abs(res.final_wall_shear - (-0.443748313369)) <= 1e-6
        # every probe after the bracket closed lies strictly inside it
        h = [it.h_star for it in res.iterates]
        for k in range(3, len(h)):
            pos = max(x for x, it in zip(h[:k], res.iterates) if it.gamma > 0)
            neg = min(x for x, it in zip(h[:k], res.iterates) if it.gamma < 0)
            assert pos < h[k] < neg

    @pytest.mark.parametrize("max_iterations", [5, 50])
    def test_positive_sign_stops_after_seeds(self, max_iterations):
        res = solve_sakiadis(ItmConfig(sign=1, max_iterations=max_iterations))
        assert not res.converged
        assert res.gamma_evaluations == 2
        assert all(it.gamma <= -0.75 for it in res.iterates)

    def test_flat_secant_inside_bracket_does_not_break_down(self, monkeypatch):
        traj = Trajectory([(eta, 0.0, 1.0, -1.0) for eta in (0.0, 1.0)])

        def step_evaluate(h_star, config):
            return GammaEvaluation(h_star, 0.0, 1.2, 1.0 if h_star < 3.0 else -1.0), traj

        monkeypatch.setattr(solver_mod, "_evaluate", step_evaluate)
        res = solve_sakiadis(ItmConfig(h0=2.0, h1=4.0, max_iterations=12))
        assert not res.converged
        assert res.gamma_evaluations == 12
        assert all(2.0 < it.h_star < 4.0 for it in res.iterates[2:])
        assert abs(res.iterates[-1].h_star - 3.0) < 0.05

    def test_flat_newton_inside_bracket_does_not_break_down(self, monkeypatch):
        traj = Trajectory([(eta, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for eta in (0.0, 1.0)])

        def step_evaluate(h_star, config):
            if h_star < 1.5:
                raise DegenerateFarFieldError("certified below the root", 0.5)
            return GammaEvaluation(h_star, 0.0, 1.2, -1.0, dgamma_dh=0.0), traj

        monkeypatch.setattr(solver_mod, "_evaluate", step_evaluate)
        res = solve_sakiadis(ItmConfig(root_finder="newton", h0=1.0, h1=None, max_iterations=6))
        assert not res.converged
        # doubled past the certified seed, then bracket steps: no Newton breakdown
        assert [it.h_star for it in res.iterates] == [1.0, 2.0, 1.5, 1.25, 1.375, 1.4375]


class TestCallerStop:
    """A sign -1 probe runs the caller's ``stop`` after its own certificate."""

    @pytest.mark.parametrize("root_finder, dim", [("secant", 3), ("newton", 6)])
    def test_sign_minus_one_probe_calls_stop(self, root_finder, dim):
        seen = []
        control = StepControl(stop=lambda eta, y: seen.append((eta, len(y))))
        evaluate_gamma_at(2.5, ItmConfig(root_finder=root_finder, step_control=control))
        assert seen and all(size == dim for _, size in seen)
        assert seen[-1][0] == 10.0

    def test_stop_sees_only_uncertified_samples(self):
        seen = []
        control = StepControl(stop=lambda eta, y: seen.append(eta))
        with pytest.raises(DegenerateFarFieldError) as err:
            evaluate_gamma_at(0.5, ItmConfig(step_control=control))
        assert seen and max(seen) < err.value.eta

    def test_stop_ends_the_solve(self):
        def stop(eta, y):
            if eta > 5.0:
                raise IntegrationError("caller stop", eta)

        with pytest.raises(IntegrationError, match="^caller stop$"):
            solve_sakiadis(ItmConfig(step_control=StepControl(stop=stop)))


class TestProbeInputs:
    """A probe builds its spec and step control unchecked; both equal the checked builds."""

    @pytest.mark.parametrize("config", [
        ItmConfig(eta_inf_star=10),
        ItmConfig(eta_inf_star=15.0),
        ItmConfig(root_finder="newton"),
        ItmConfig(sign=1),
        ItmConfig(step_control=StepControl(rel_tol=1e-8, stop=lambda eta, y: None)),
    ], ids=["int eta_inf_star", "eta_inf_star 15", "newton", "sign +1", "caller stop"])
    def test_probe_inputs_equal_the_checked_builds(self, config, monkeypatch):
        handed = []
        integrate = solver_mod.integrate_adaptive

        def capture(spec, control=None):
            handed.append((spec, control))
            return integrate(spec, control)

        monkeypatch.setattr(solver_mod, "integrate_adaptive", capture)
        solve_sakiadis(config)
        assert handed
        for spec, control in handed:
            assert repr(spec) == repr(IvpSpec(spec.start, spec.end, spec.initial_state,
                                              spec.system))
            assert control == StepControl(**vars(control))

    def test_int_eta_inf_star_solves_as_its_float(self):
        assert repr(solve_sakiadis(ItmConfig(eta_inf_star=10))) == repr(
            solve_sakiadis(ItmConfig(eta_inf_star=10.0)))


class TestRescaledSolution:
    def test_boundary_conditions(self):
        res = solve_sakiadis()
        sol = res.rescaled_solution
        assert sol.rows[0][1] == 0.0
        assert abs(sol.rows[0][2] - 1.0) <= 1e-9
        assert abs(sol.final_state[1]) <= 1e-3

    def test_far_slope_identity_at_root(self):
        res = solve_sakiadis()
        # lam^2 - sqrt(h*) is the starred far slope; at the root it vanishes
        residual = res.final_lambda ** 2 - math.sqrt(res.final_h_star)
        assert abs(residual) <= 1e-4

    def test_span_stretches_by_lambda(self):
        res = solve_sakiadis()
        assert res.rescaled_solution.rows[-1][0] == pytest.approx(
            res.final_lambda * 10.0, rel=1e-12)


class TestResultsCompareByValue:
    @pytest.mark.parametrize("solve", [
        solve_sakiadis,
        lambda: solve_sakiadis(ItmConfig(root_finder="newton", h1=None)),
        solve_blasius_topfer,
    ], ids=["secant", "newton", "topfer"])
    def test_two_solves_are_equal(self, solve):
        one, two = solve(), solve()
        assert one is not two and one == two
        assert hash(one.rescaled_solution) == hash(two.rescaled_solution)

    def test_copies_of_a_converged_result_are_equal(self):
        res = solve_sakiadis()
        assert res.converged
        for copied in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
            assert copied is not res and copied == res
            assert repr(copied) == repr(res)


class TestItmConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"root_finder": "bisect"},
        {"h0": -1.0},
        {"h0": 2.5, "h1": 2.5},
        {"h1": None},
        {"h1": -3.0},
        {"sign": 0},
        {"root_finder": "newton", "sign": 1},
        {"eta_inf_star": 0.0},
        {"gamma_tol": 0.0},
        {"max_iterations": 0},
        {"gamma_tol": math.inf},
        {"eta_inf_star": math.inf},
        {"max_iterations": math.nan},
        {"max_iterations": 2.5},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ItmConfig(**kwargs)

    def test_newton_ignores_h1(self):
        cfg = ItmConfig(root_finder="newton", h1=None)
        assert cfg.h0 == 2.5

    def test_positive_branch_allowed_for_secant(self):
        assert ItmConfig(sign=1).sign == 1

    @pytest.mark.parametrize("solve", [
        lambda: ItmConfig(step_control=None),
        lambda: ItmConfig(step_control={"abs_tol": 1e-8}),
        lambda: scan(ScanGrid(0.5, 1.0, 3), -1, step_control=1),
        lambda: solve_blasius_topfer(step_control=1),
    ], ids=["config None", "config dict", "scan", "topfer"])
    def test_rejects_a_step_control_of_another_type(self, solve):
        with pytest.raises(ValueError, match="^step_control must be a StepControl, got "):
            solve()


class TestTopfer:
    def test_default_checks(self):
        res = solve_blasius_topfer()
        assert res.accepted_eta == 6.0
        assert [eta for eta, _ in res.lambda_checks] == [4.0, 6.0, 8.0, 10.0]
        assert res.accepted_lambda == dict(res.lambda_checks)[res.accepted_eta]
        assert abs(res.wall_shear - 0.332057) <= 1e-5
        # frozen far-field parameter from a rtol=1e-12 reference run
        assert abs(res.accepted_lambda - 0.6924755467) <= 1e-6

    def test_pair_topfer_used(self):
        res = solve_blasius_topfer(eta_checks=(4.0, 6.0), agreement_tol=1e-3)
        assert res.accepted_eta == 6.0
        assert abs(res.wall_shear - 0.332057) <= 1e-5

    def test_tight_agreement_marches_past_first_pair(self):
        res = solve_blasius_topfer(eta_checks=(4.0, 6.0, 8.0), agreement_tol=1e-5)
        assert res.accepted_eta == 8.0
        assert [eta for eta, _ in res.lambda_checks] == [4.0, 6.0, 8.0]
        assert res.accepted_lambda == dict(res.lambda_checks)[res.accepted_eta]
        assert abs(res.wall_shear - 0.332057) <= 1e-5

    def test_far_plateau_beyond_ten(self):
        far = solve_blasius_topfer(eta_checks=(10.0, 12.0))
        near = solve_blasius_topfer()
        assert abs(far.wall_shear - near.wall_shear) <= 1e-6

    def test_infinite_agreement_accepts_first_pair(self):
        res = solve_blasius_topfer(eta_checks=(2.0, 4.0), agreement_tol=math.inf)
        assert res.accepted_eta == 4.0

    def test_no_agreement_raises_with_parameters(self):
        with pytest.raises(TopferAgreementError) as err:
            solve_blasius_topfer(eta_checks=(4.0, 6.0), agreement_tol=1e-9)
        assert len(err.value.lambda_checks) == 2

    def test_rescaled_far_slope_is_unity(self):
        res = solve_blasius_topfer()
        sol = res.rescaled_solution
        assert sol.rows[0][1] == 0.0
        assert sol.rows[0][2] == 0.0
        assert abs(sol.final_state[1] - 1.0) <= 1e-5

    @pytest.mark.parametrize("kwargs, message", [
        ({"eta_checks": (4.0,)}, "at least two"),
        ({"eta_checks": (6.0, 4.0)}, "strictly increasing"),
        ({"eta_checks": (-1.0, 4.0)}, "must be positive"),
        ({"eta_checks": (4.0, 6.0), "agreement_tol": 0.0}, "agreement_tol"),
        ({"eta_checks": (4.0, math.nan)}, "truncated boundaries must be finite"),
    ], ids=[f"kwargs{i}" for i in range(5)])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            solve_blasius_topfer(**kwargs)

    def test_custom_step_control(self):
        res = solve_blasius_topfer(step_control=StepControl(abs_tol=1e-8, rel_tol=1e-8))
        assert abs(res.wall_shear - 0.332057) <= 1e-5
