"""Hessian-free optimizer: damping schedule, line search, Algorithm 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hf import (
    ArmijoConfig,
    DampingSchedule,
    FrameSource,
    HFConfig,
    HessianFreeOptimizer,
    SequenceSource,
    armijo_backtrack,
    gradient_squared_preconditioner,
    martens_preconditioner,
)
from repro.hf.sources import curvature_sample
from repro.nn import DNN, CrossEntropyLoss, SequenceMMILoss, UtteranceSpan


class TestDampingSchedule:
    def test_paper_constants(self):
        s = DampingSchedule()
        assert s.increase == pytest.approx(1.5)  # 3/2
        assert s.decrease == pytest.approx(2.0 / 3.0)

    def test_low_rho_increases_lambda(self):
        s = DampingSchedule()
        d = s.update(1.0, actual_change=-0.01, predicted_change=-1.0)
        assert d.action == "increase"
        assert d.lam == pytest.approx(1.5)

    def test_high_rho_decreases_lambda(self):
        s = DampingSchedule()
        d = s.update(1.0, actual_change=-0.9, predicted_change=-1.0)
        assert d.action == "decrease"
        assert d.lam == pytest.approx(2.0 / 3.0)

    def test_mid_rho_keeps_lambda(self):
        s = DampingSchedule()
        d = s.update(1.0, actual_change=-0.5, predicted_change=-1.0)
        assert d.action == "keep" and d.lam == 1.0

    def test_reject_raises_lambda(self):
        s = DampingSchedule()
        d = s.reject(2.0)
        assert d.action == "reject" and d.lam == pytest.approx(3.0)
        assert math.isnan(d.rho)

    def test_nonnegative_prediction_rejects(self):
        s = DampingSchedule()
        assert s.update(1.0, -0.5, 0.0).action == "reject"

    def test_lambda_clamped(self):
        s = DampingSchedule(lam_max=10.0)
        lam = 9.0
        for _ in range(5):
            lam = s.reject(lam).lam
        assert lam == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DampingSchedule(lam0=0.0)
        with pytest.raises(ValueError):
            DampingSchedule(increase=0.9)
        with pytest.raises(ValueError):
            DampingSchedule(low=0.8, high=0.2)

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(1e-8, 1e8),
        actual=st.floats(-10, 10),
        predicted=st.floats(-10, -1e-6),
    )
    def test_property_lambda_stays_in_bounds(self, lam, actual, predicted):
        s = DampingSchedule()
        d = s.update(lam, actual, predicted)
        assert s.lam_min <= d.lam <= s.lam_max


class TestArmijo:
    def test_accepts_full_step_on_strong_descent(self):
        res = armijo_backtrack(
            lambda a: 1.0 - 0.9 * a, loss0=1.0, directional_derivative=-1.0
        )
        assert res.accepted and res.alpha == 1.0

    def test_backtracks_on_overshoot(self):
        # quadratic bowl: full step overshoots past the minimum
        f = lambda a: (2.0 * a - 1.0) ** 2
        res = armijo_backtrack(f, loss0=1.0, directional_derivative=-4.0)
        assert res.accepted
        assert res.alpha < 1.0
        assert res.loss < 1.0

    def test_gives_up_when_no_improvement(self):
        res = armijo_backtrack(
            lambda a: 2.0, loss0=1.0, directional_derivative=-1.0,
            config=ArmijoConfig(max_steps=10),
        )
        assert not res.accepted and res.alpha == 0.0
        assert res.evaluations == 10

    def test_rejects_nan_losses(self):
        calls = []

        def f(a):
            calls.append(a)
            return float("nan") if a > 0.5 else 0.0

        res = armijo_backtrack(f, loss0=1.0, directional_derivative=-1.0)
        assert res.accepted and res.alpha <= 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ArmijoConfig(c=0.0)
        with pytest.raises(ValueError):
            ArmijoConfig(rate=1.0)


def _toy_problem(seed=0, n=400, d=6, c=4):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d)) * 2.0
    labels = rng.integers(0, c, n)
    x = centers[labels] + rng.standard_normal((n, d)) * 0.8
    h_labels = rng.integers(0, c, n // 4)
    hx = centers[h_labels] + rng.standard_normal((n // 4, d)) * 0.8
    return x, labels, hx, h_labels


class TestHessianFree:
    def test_heldout_loss_decreases(self):
        x, y, hx, hy = _toy_problem()
        net = DNN([6, 16, 4])
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.1)
        res = HessianFreeOptimizer(src, HFConfig(max_iterations=5)).run(
            net.init_params(0)
        )
        traj = res.heldout_trajectory
        assert len(traj) == 5
        assert traj[-1] < traj[0]

    def test_beats_initial_loss_with_sequence_criterion(self):
        rng = np.random.default_rng(1)
        s = 3
        trans = np.full((s, s), 1.0 / s)
        loss = SequenceMMILoss(np.log(trans), kappa=0.8)
        frames = 60
        x = rng.standard_normal((frames, 5))
        spans = [
            UtteranceSpan(0, 30, rng.integers(0, s, 30)),
            UtteranceSpan(30, 60, rng.integers(0, s, 30)),
        ]
        hx = rng.standard_normal((20, 5))
        hspans = [UtteranceSpan(0, 20, rng.integers(0, s, 20))]
        net = DNN([5, 8, s])
        src = SequenceSource(net, loss, x, spans, hx, hspans, curvature_fraction=0.5)
        res = HessianFreeOptimizer(src, HFConfig(max_iterations=3)).run(
            net.init_params(1)
        )
        assert res.heldout_trajectory[-1] <= res.heldout_trajectory[0] + 1e-9

    def test_deterministic_given_seed(self):
        x, y, hx, hy = _toy_problem(seed=2)
        net = DNN([6, 12, 4])
        theta0 = net.init_params(3)

        def run():
            src = FrameSource(
                net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.1, seed=5
            )
            return HessianFreeOptimizer(src, HFConfig(max_iterations=3)).run(theta0)

        t1, t2 = run(), run()
        assert np.array_equal(t1.theta, t2.theta)
        assert t1.heldout_trajectory == t2.heldout_trajectory

    def test_stats_recorded(self):
        x, y, hx, hy = _toy_problem(seed=4)
        net = DNN([6, 8, 4])
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)
        res = HessianFreeOptimizer(src, HFConfig(max_iterations=2)).run(
            net.init_params(0)
        )
        for it in res.iterations:
            assert it.cg_iterations >= 1
            assert 1 <= it.backtrack_index <= it.n_steps
            assert it.lam > 0
            assert it.grad_norm > 0
            assert it.heldout_evals >= 1

    def test_tolerance_stops_early(self):
        x, y, hx, hy = _toy_problem(seed=5)
        net = DNN([6, 8, 4])
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)
        res = HessianFreeOptimizer(
            src, HFConfig(max_iterations=50, tolerance=0.5)
        ).run(net.init_params(0))
        assert res.converged
        assert len(res.iterations) < 50

    def test_preconditioned_run_works(self):
        x, y, hx, hy = _toy_problem(seed=6)
        net = DNN([6, 8, 4])
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)
        opt = HessianFreeOptimizer(
            src,
            HFConfig(max_iterations=3),
            precond_builder=gradient_squared_preconditioner(),
        )
        res = opt.run(net.init_params(0))
        assert res.heldout_trajectory[-1] < res.heldout_trajectory[0]

    def test_momentum_config_validated(self):
        with pytest.raises(ValueError):
            HFConfig(momentum=1.0)
        with pytest.raises(ValueError):
            HFConfig(max_iterations=0)


class TestPreconditioner:
    def test_martens_diagonal_positive(self):
        pre = martens_preconditioner(np.array([0.0, 1.0, 100.0]), lam=0.1)
        assert np.all(pre > 0)

    def test_martens_validation(self):
        with pytest.raises(ValueError):
            martens_preconditioner(np.ones(3), lam=-1.0)
        with pytest.raises(ValueError):
            martens_preconditioner(np.ones(3), lam=1.0, xi=0.0)

    def test_squared_gradient_diagonal_matches_loop(self):
        from repro.hf import squared_gradient_diagonal

        rng = np.random.default_rng(7)
        net = DNN([3, 4, 2])
        theta = net.init_params(0)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        ce = CrossEntropyLoss()
        acc = squared_gradient_diagonal(net, theta, x, ce, y, block=2)
        expected = np.zeros_like(theta)
        for i in range(5):
            _, gi = net.loss_and_grad(theta, x[i : i + 1], ce, y[i : i + 1])
            expected += gi * gi
        assert np.allclose(acc, expected)


class TestSources:
    def test_frame_source_gradient_matches_direct(self):
        x, y, hx, hy = _toy_problem(seed=8, n=100)
        net = DNN([6, 8, 4])
        theta = net.init_params(0)
        src = FrameSource(
            net, CrossEntropyLoss(), x, y, hx, hy, chunk_frames=17
        )
        loss_sum, grad, n = src.gradient(theta)
        v_direct, g_direct = net.loss_and_grad(theta, x, CrossEntropyLoss(), y)
        assert n == 100
        assert loss_sum == pytest.approx(v_direct, rel=1e-12)
        assert np.allclose(grad, g_direct, atol=1e-10)

    def test_curvature_sample_seeded(self):
        a = curvature_sample(100, 0.1, seed=3, sample_seed=1)
        b = curvature_sample(100, 0.1, seed=3, sample_seed=1)
        c = curvature_sample(100, 0.1, seed=3, sample_seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(a) == 10

    def test_curvature_operator_is_damped(self):
        x, y, hx, hy = _toy_problem(seed=10, n=50)
        net = DNN([6, 8, 4])
        theta = net.init_params(0)
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(theta.size)
        op0 = src.curvature_operator(theta, 0.0, 1)
        op5 = src.curvature_operator(theta, 5.0, 1)
        assert np.allclose(op5(v) - op0(v), 5.0 * v, atol=1e-10)

    def test_validation(self):
        x, y, hx, hy = _toy_problem(seed=11, n=20)
        net = DNN([6, 8, 4])
        with pytest.raises(ValueError):
            FrameSource(net, CrossEntropyLoss(), x, y[:-1], hx, hy)
        with pytest.raises(ValueError):
            FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.0)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_sequence_source_rejects_bad_chunk(self, chunk):
        rng = np.random.default_rng(12)
        spans = [UtteranceSpan(0, 4, rng.integers(0, 3, 4))]
        x = rng.standard_normal((4, 5))
        loss = SequenceMMILoss(np.log(np.full((3, 3), 1.0 / 3)))
        with pytest.raises(ValueError, match="chunk_utterances"):
            SequenceSource(
                DNN([5, 8, 3]), loss, x, spans, x, spans, chunk_utterances=chunk
            )
