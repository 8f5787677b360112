import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from netexpr import affine, cgp, evolve
from netexpr.affine import AffineParams

from oracles import (FitProblem, fit_affine_ce_rows_recomputing, fit_affine_lbfgs,
                     loss_and_grad, normal_equations_fit)


def random_mse_problem(rng, n=50, width=3):
    f = rng.normal(size=n) * rng.uniform(0.5, 3.0)
    w = rng.normal(size=width) * 2
    b = rng.normal(size=width)
    targets = f[:, None] * w + b + rng.normal(scale=0.3, size=(n, width))
    return FitProblem(f, targets, affine.MSE)


class RowFit(NamedTuple):
    params: AffineParams
    final_loss: float
    degenerate: bool


def fit_mse_row(problem):
    """``fit_affine_mse_rows`` on the problem's one row, with its loss."""
    w, b, degenerate, _ = affine.fit_affine_mse_rows(problem.f_values[None, :],
                                                  problem.targets)
    params = AffineParams(w[0], b[0])
    return RowFit(params, loss_and_grad(params, problem)[0], bool(degenerate[0]))


def finite_difference_grad(params, problem, step=1e-5):
    width = params.width
    x = np.concatenate([params.w, params.b])
    grad = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        lhi, _ = loss_and_grad(AffineParams(hi[:width], hi[width:]), problem)
        llo, _ = loss_and_grad(AffineParams(lo[:width], lo[width:]), problem)
        grad[i] = (lhi - llo) / (2 * step)
    return grad


class TestLossAndGrad:
    def test_mse_convention(self):
        # duplicated single-point problem keeps the documented values
        p = FitProblem(np.array([1.0, 1.0]), np.array([[2.0], [2.0]]))
        loss, grad = loss_and_grad(AffineParams([0.0], [0.0]), p)
        assert loss == 4.0
        assert grad[1] == -4.0

    def test_cross_entropy_uniform_is_log2(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        p = FitProblem(np.array([0.3, -0.2, 1.0]), t, affine.CROSS_ENTROPY)
        loss, _ = loss_and_grad(AffineParams([0.0, 0.0], [0.0, 0.0]), p)
        assert math.isclose(loss, math.log(2), rel_tol=1e-12)

    def test_gradient_zero_at_optimum(self):
        rng = np.random.default_rng(0)
        p = random_mse_problem(rng)
        res = fit_mse_row(p)
        _, grad = loss_and_grad(res.params, p)
        assert np.linalg.norm(grad) < 1e-10

    @pytest.mark.parametrize("kind", [affine.MSE, affine.CROSS_ENTROPY])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(1)
        for _ in range(100):
            width = int(rng.integers(1, 5))
            n = int(rng.integers(5, 40))
            f = rng.normal(size=n)
            if kind == affine.MSE:
                t = rng.normal(size=(n, width))
            else:
                t = np.eye(width)[rng.integers(0, width, n)]
            problem = FitProblem(f, t, kind)
            params = AffineParams(rng.normal(size=width), rng.normal(size=width))
            _, grad = loss_and_grad(params, problem)
            fd = finite_difference_grad(params, problem)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom < 1e-4


class TestNewton:
    """The closed-form MSE fit is one exact Newton step."""

    def test_exact_line(self):
        p = FitProblem(np.array([1.0, 2.0, 3.0]), np.array([[3.0], [5.0], [7.0]]))
        res = fit_mse_row(p)
        assert math.isclose(res.params.w[0], 2.0, abs_tol=1e-12)
        assert math.isclose(res.params.b[0], 1.0, abs_tol=1e-12)
        assert res.final_loss < 1e-24
        assert not res.degenerate

    def test_constant_f_falls_back_to_mean(self):
        p = FitProblem(np.array([5.0, 5.0, 5.0]), np.array([[1.0], [2.0], [3.0]]))
        res = fit_mse_row(p)
        assert res.degenerate
        assert res.params.w[0] == 0.0
        assert res.params.b[0] == 2.0

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_mse_problem(rng, n=50, width=int(rng.integers(1, 6)))
            res = fit_mse_row(p)
            w, b = normal_equations_fit(p.f_values, p.targets)
            assert np.allclose(res.params.w, w, rtol=1e-10, atol=1e-12)
            assert np.allclose(res.params.b, b, rtol=1e-10, atol=1e-12)

    def test_second_step_is_noop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_mse_problem(rng)
            res = fit_mse_row(p)
            f, n = p.f_values, p.f_values.shape[0]
            hessian = (2.0 / n) * np.array([[(f * f).sum(), f.sum()],
                                            [f.sum(), float(n)]])
            _, grad = loss_and_grad(res.params, p)
            width = p.width
            delta = np.linalg.solve(hessian, -np.vstack([grad[:width], grad[width:]]))
            assert np.abs(delta).max() < 1e-12


class TestBatchedRows:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        for width in range(1, 21):
            P, n = int(rng.integers(1, 51)), int(rng.integers(3, 80))
            F = rng.normal(size=(P, n)) * rng.uniform(0.5, 3.0, size=(P, 1))
            t = rng.normal(size=(n, width))
            w, b, degenerate, _ = affine.fit_affine_mse_rows(F, t)
            assert w.shape == b.shape == (P, width) and not degenerate.any()
            for row in range(P):
                w_ref, b_ref = normal_equations_fit(F[row], t)
                assert np.allclose(w[row], w_ref, rtol=1e-10, atol=1e-12)
                assert np.allclose(b[row], b_ref, rtol=1e-10, atol=1e-12)

    def test_equal_rows_get_bit_equal_fits_anywhere_in_the_batch(self):
        rng = np.random.default_rng(13)
        for P in range(190, 202):
            for width in (1, 3):
                F = rng.normal(size=(P, 160))
                F[[6, P - 1]] = F[3]
                w, b, *_ = affine.fit_affine_mse_rows(F, rng.normal(size=(160, width)))
                for row in (6, P - 1):
                    assert np.array_equal(w[row], w[3])
                    assert np.array_equal(b[row], b[3])

    def test_single_row_is_its_row_of_the_batch(self):
        # TestNewton fits one row at a time; explain fits whole populations
        rng = np.random.default_rng(10)
        F = rng.normal(size=(9, 50))
        t = rng.normal(size=(50, 4))
        w, b, degenerate, _ = affine.fit_affine_mse_rows(F, t)
        for row in range(F.shape[0]):
            w1, b1, d1, _ = affine.fit_affine_mse_rows(F[row][None, :], t)
            assert np.array_equal(w1[0], w[row])
            assert np.array_equal(b1[0], b[row])
            assert d1[0] == degenerate[row]

    @pytest.mark.parametrize("offset", [1e6, 1e12])
    def test_large_offset_keeps_the_fit(self, offset):
        # f - offset is exact, so the oracle sees the same data unshifted
        rng = np.random.default_rng(11)
        base = rng.normal(size=(5, 40))
        F = base + offset
        t = rng.normal(size=(40, 3))
        w, b, degenerate, _ = affine.fit_affine_mse_rows(F, t)
        assert not degenerate.any()
        for row in range(5):
            w_ref, b0_ref = normal_equations_fit(F[row] - offset, t)
            assert np.allclose(w[row], w_ref, rtol=1e-6)
            assert np.allclose(b[row], b0_ref - w_ref * offset, rtol=1e-6,
                               atol=1e-6 * np.abs(w_ref).max() * offset)

    def test_degenerate_rows_fall_back_to_mean(self):
        rng = np.random.default_rng(12)
        n = 30
        t = rng.normal(size=(n, 2))
        spread = rng.normal(size=n)
        F = np.stack([
            np.full(n, 5.0),                          # constant
            np.full(n, 1e12),                         # constant, large
            1e12 + np.where(spread > 0, 1.2e-4, 0.0),  # one-ulp steps at 1e12
            np.where(spread > 0, np.inf, 1.0),        # non-finite
            np.full(n, np.nan),
            spread,                                   # ordinary row
        ])
        w, b, degenerate, _ = affine.fit_affine_mse_rows(F, t)
        assert degenerate.tolist() == [True] * 5 + [False]
        assert np.all(w[:5] == 0.0)
        assert np.all(b[:5] == t.mean(axis=0))
        w_ref, b_ref = normal_equations_fit(spread, t)
        assert np.allclose(w[5], w_ref, rtol=1e-10)
        assert np.allclose(b[5], b_ref, rtol=1e-10)


class TestMseRowBlocks:
    @staticmethod
    def awkward_rows(rng, n):
        """Ordinary rows among degenerate, non-finite and constant ones."""
        F = rng.normal(size=(23, n)) * rng.uniform(0.5, 3.0, size=(23, 1))
        F[2] = 5.0                                            # constant
        F[5] = 1e12                                           # constant, large
        F[7] = 1e12 + np.where(rng.random(n) > 0.5, 1.2e-4, 0.0)   # one-ulp steps
        F[8, n // 2] = np.inf
        F[11] = np.nan
        F[12, 0] = -np.inf
        F[13] += 1e9                                          # large offset
        F[17] = F[0]                                          # a duplicate
        F[20] = 0.0
        return F

    @pytest.mark.parametrize("n", [1, 9, 160])
    def test_blocked_fit_equals_one_block_bit_for_bit(self, monkeypatch, n):
        rng = np.random.default_rng(43 + n)
        F = self.awkward_rows(rng, n)
        for width in (1, 3):
            t = rng.normal(size=(n, width))
            monkeypatch.setattr(affine, "MSE_BLOCK", F.size)
            whole = affine.fit_affine_mse_rows(F, t)
            if n > 1:
                assert whole[2][[2, 5, 7, 8, 11, 12, 20]].all() and not whole[2][0]
            # one row per block, blocks of two and of five rows, and a
            # block smaller than one row
            for block in (n, 2 * n + 1, 5 * n, 1):
                monkeypatch.setattr(affine, "MSE_BLOCK", block)
                got = affine.fit_affine_mse_rows(F, t)
                for a, b in zip(got, whole):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), block

    def test_memory_does_not_grow_with_the_rows(self):
        # the one-pass fit held two (R, n) temporaries at once: a 51 MB peak here
        rng = np.random.default_rng(44)
        R, n, width = 400, 8000, 3
        F = rng.normal(size=(R, n))
        t = rng.normal(size=(n, width))
        tracemalloc.start()
        try:
            w, *_ = affine.fit_affine_mse_rows(F, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (R, width)
        assert peak < 4 * 8 * (affine.MSE_BLOCK + n * width)


def ce_targets(rng, n, width, soft):
    if soft:
        z = rng.normal(size=(n, width)) * 2.0
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return np.eye(width)[rng.integers(0, width, n)]


def ce_rows(rng, n, count):
    """Ordinary rows plus the hard cases: |f| up to 1e12, a 1e12 offset
    with unit spread, the ln sentinel, and exp values clamped at 1e12."""
    rows = [rng.normal(size=n) * rng.uniform(0.3, 3.0) for _ in range(count)]
    rows.append(rng.normal(size=n) * 1e12)
    rows.append(1e12 + rng.normal(size=n))
    rows.append(np.where(rng.random(n) < 0.2, cgp.LN_SENTINEL, rng.normal(size=n)))
    rows.append(np.clip(np.exp(rng.normal(size=n) * 20), None, cgp.CLAMP))
    return np.stack(rows)


class TestBatchedCrossEntropy:
    @pytest.fixture(autouse=True)
    def fits_equal_the_recomputing_reference(self, monkeypatch):
        """Every fit these tests make equals, bit for bit in every field,
        the reference that recomputes each Newton step's logits,
        log-sum-exp and loss."""
        def checked(F, targets):
            got = fit(F, targets)
            want = fit_affine_ce_rows_recomputing(F, targets)
            for name, a, b in zip(got._fields, got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
            return got

        fit = affine.fit_affine_ce_rows
        monkeypatch.setattr(affine, "fit_affine_ce_rows", checked)

    def test_no_worse_than_lbfgs(self):
        rng = np.random.default_rng(20)
        for width in (2, 3, 4):
            for soft in (True, False):
                for _ in range(4):
                    n = int(rng.integers(8, 60))
                    t = ce_targets(rng, n, width, soft)
                    F = ce_rows(rng, n, 4)
                    fit = affine.fit_affine_ce_rows(F, t)
                    assert fit.w.shape == fit.b.shape == (F.shape[0], width)
                    assert not fit.degenerate.any()
                    for row in range(F.shape[0]):
                        p = FitProblem(F[row], t, affine.CROSS_ENTROPY)
                        ref = fit_affine_lbfgs(p).final_loss
                        got, _ = loss_and_grad(
                            AffineParams(fit.w[row], fit.b[row]), p)
                        assert got <= ref + 1e-9 * max(1.0, abs(ref))

    def test_class_zero_is_pinned(self):
        rng = np.random.default_rng(21)
        t = ce_targets(rng, 40, 3, True)
        fit = affine.fit_affine_ce_rows(ce_rows(rng, 40, 3), t)
        assert np.all(fit.w[:, 0] == 0.0) and np.all(fit.b[:, 0] == 0.0)

    def test_constant_rows_are_degenerate_constant_logits(self):
        rng = np.random.default_rng(22)
        n = 30
        t = ce_targets(rng, n, 3, True)
        F = np.stack([np.full(n, 5.0), np.full(n, 1e12), np.full(n, cgp.LN_SENTINEL),
                      np.full(n, np.inf), rng.normal(size=n)])
        fit = affine.fit_affine_ce_rows(F, t)
        assert fit.degenerate.tolist() == [True] * 4 + [False]
        assert np.all(fit.w[:4] == 0.0)
        assert np.all(fit.iterations[:4] == 0)
        # the best constant logits reproduce the mean target distribution
        p = np.exp(fit.b[0]) / np.exp(fit.b[0]).sum()
        assert np.allclose(p, t.mean(axis=0), rtol=1e-12)
        assert np.array_equal(fit.b[1], fit.b[0])

    def test_single_class_has_nothing_to_fit(self):
        rng = np.random.default_rng(28)
        fit = affine.fit_affine_ce_rows(ce_rows(rng, 20, 2), np.ones((20, 1)))
        assert np.all(fit.w == 0.0) and np.all(fit.b == 0.0)
        assert fit.converged.all() and np.all(fit.iterations == 0)

    def test_absent_class_keeps_finite_parameters(self):
        rng = np.random.default_rng(23)
        n = 40
        for absent in (0, 2):
            labels = rng.choice([c for c in range(3) if c != absent], size=n)
            t = np.eye(3)[labels]
            F = ce_rows(rng, n, 3)
            fit = affine.fit_affine_ce_rows(F, t)
            assert np.isfinite(fit.w).all() and np.isfinite(fit.b).all()
            for row in range(F.shape[0]):
                p = FitProblem(F[row], t, affine.CROSS_ENTROPY)
                ref = fit_affine_lbfgs(p).final_loss
                got, _ = loss_and_grad(AffineParams(fit.w[row], fit.b[row]), p)
                assert got <= ref + 1e-9 * max(1.0, abs(ref))

    def test_equal_rows_get_bit_equal_fits_anywhere_in_the_batch(self):
        rng = np.random.default_rng(24)
        for P in (7, 33, 101, 190, 201):
            for width in (2, 3):
                n = int(rng.integers(100, 501))
                F = ce_rows(rng, n, P - 4)
                F[[1, P - 1]] = F[0]
                F[P // 2] = F[P - 3]               # the 1e12-offset row, copied inward
                fit = affine.fit_affine_ce_rows(F, ce_targets(rng, n, width, True))
                for row, src in ((1, 0), (P - 1, 0), (P // 2, P - 3)):
                    assert np.array_equal(fit.w[row], fit.w[src])
                    assert np.array_equal(fit.b[row], fit.b[src])
                    assert fit.iterations[row] == fit.iterations[src]

    @pytest.mark.parametrize("max_iters", [0, 1, 2, 5, 500])
    def test_iterations_within_cap(self, max_iters, monkeypatch):
        monkeypatch.setattr(affine, "NEWTON_MAX_ITERS", max_iters)
        rng = np.random.default_rng(25)
        t = ce_targets(rng, 50, 3, False)
        fit = affine.fit_affine_ce_rows(ce_rows(rng, 50, 6), t)
        assert fit.iterations.max() <= max_iters
        if max_iters == 0:
            assert np.all(fit.w == 0.0)

    def test_heavy_tailed_row_stops_below_the_backstop(self):
        # f spans 17 decades, so one sample holds nearly all the variance
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = rng.uniform(3.0, 20.0, 500)
        f = 10.0 ** -u
        p1 = 1.0 / (1.0 + np.exp(-3.0 * (u - 11.5)))
        t = np.stack([1.0 - p1, p1], axis=1)
        fit = affine.fit_affine_ce_rows(f[None], t)
        assert 0 < fit.iterations[0] < affine.NEWTON_MAX_ITERS
        # the loss is flat along that valley: the fit ends about 1e-7
        # (relative) above L-BFGS, not at its 1e-9
        p = FitProblem(f, t, affine.CROSS_ENTROPY)
        ref = fit_affine_lbfgs(p).final_loss
        got, _ = loss_and_grad(AffineParams(fit.w[0], fit.b[0]), p)
        assert got <= ref + 1e-6 * max(1.0, abs(ref))

    def test_converged_soft_rows_have_zero_gradient(self):
        rng = np.random.default_rng(26)
        checked = 0
        for width in (2, 3, 4):
            n = 80
            t = ce_targets(rng, n, width, True)
            F = ce_rows(rng, n, 6)
            fit = affine.fit_affine_ce_rows(F, t)
            for row in np.flatnonzero(fit.converged & ~fit.degenerate):
                f = F[row]
                if abs(f.mean()) > 1e6 * f.std():
                    continue    # w * f + b rounds each logit by ~eps * |w f|
                # relative: the w part is taken per unit of the row's RMS
                _, grad = loss_and_grad(AffineParams(fit.w[row], fit.b[row]),
                                        FitProblem(f, t, affine.CROSS_ENTROPY))
                grad[:width] /= np.sqrt((f * f).mean())
                assert np.linalg.norm(grad) < 1e-6
                checked += 1
        assert checked >= 20

    def test_single_row_is_its_row_of_the_batch(self):
        rng = np.random.default_rng(27)
        t = ce_targets(rng, 30, 3, True)
        F = ce_rows(rng, 30, 5)
        fit = affine.fit_affine_ce_rows(F, t)
        for row in range(F.shape[0]):
            one = affine.fit_affine_ce_rows(F[row][None, :], t)
            assert np.array_equal(one.w[0], fit.w[row])
            assert np.array_equal(one.b[0], fit.b[row])
            assert one.iterations[0] == fit.iterations[row]
            assert one.converged[0] == fit.converged[row]
            assert one.degenerate[0] == fit.degenerate[row]

    def test_separable_problem_with_more_parameters_than_samples(self):
        # 3 samples, 3 classes: the loss has no minimum, only an infimum of 0
        t = np.eye(3)[[0, 1, 0]]
        F = np.array([[1.0, -1.0, 0.5]])
        fit = affine.fit_affine_ce_rows(F, t)
        assert np.isfinite(fit.w).all() and np.isfinite(fit.b).all()
        assert not fit.degenerate[0]
        p = FitProblem(F[0], t, affine.CROSS_ENTROPY)
        got, _ = loss_and_grad(AffineParams(fit.w[0], fit.b[0]), p)
        ref = fit_affine_lbfgs(p).final_loss
        assert got <= ref + 1e-9 * max(1.0, abs(ref))



class TestSingularHessian:
    # classes 3 and 5 are empty: their probabilities underflow, so their
    # Hessian diagonals fall to about tiny and the batched solve raises
    F = np.array([[136.66546404912168, 145.5985366637316, 146.179963458598,
                   141.46212006989185, 141.74797723092877, 139.55609594723882,
                   136.60928460324502, 139.74661671415788, 144.58216064111053,
                   136.17030634195012, 137.5595110368666, 135.2523503959047,
                   141.4481592569656]])
    targets = np.eye(8)[[1, 6, 6, 4, 2, 7, 1, 2, 4, 1, 2, 0, 2]]

    def test_row_stops_instead_of_raising(self):
        rng = np.random.default_rng(29)
        F = np.concatenate([rng.normal(size=(1, 13)), self.F])
        fit = affine.fit_affine_ce_rows(F, self.targets)
        assert np.isfinite(fit.w).all() and np.isfinite(fit.b).all()
        assert not fit.degenerate.any() and not fit.converged[1]
        assert 0 < fit.iterations[1] < affine.NEWTON_MAX_ITERS
        start = affine.fit_affine_ce_rows(np.full((1, 13), 3.0), self.targets)
        scored = evolve.score_rows(self.F, fit.w[1:], fit.b[1:], self.targets,
                                   affine.CROSS_ENTROPY)
        assert scored[0] < evolve.score_rows(self.F, start.w, start.b, self.targets,
                                             affine.CROSS_ENTROPY)[0]
        # the other row's fit does not depend on the singular one
        one = affine.fit_affine_ce_rows(F[:1], self.targets)
        for name, a, b in zip(one._fields, one, fit):
            assert a[0].tobytes() == b[0].tobytes(), name

class TestLbfgs:
    def test_agrees_with_newton_on_mse(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_mse_problem(rng, n=40, width=int(rng.integers(1, 5)))
            newton = fit_mse_row(p)
            lbfgs = fit_affine_lbfgs(p)
            assert lbfgs.converged
            denom = max(abs(newton.final_loss), 1e-12)
            assert abs(lbfgs.final_loss - newton.final_loss) / denom < 1e-6

    def test_zero_gradient_start_returns_immediately(self):
        p = FitProblem(np.array([-1.0, 0.0, 1.0]), np.full((3, 2), 4.0))
        res = fit_affine_lbfgs(p)
        assert res.iterations == 0
        assert res.converged

    def test_separable_classes_fit_below_threshold(self):
        # oracle first: plain gradient descent confirms the toy is fittable
        rng = np.random.default_rng(5)
        f = np.concatenate([rng.uniform(0.5, 2.0, 30), rng.uniform(-2.0, -0.5, 30)])
        t = np.zeros((60, 2))
        t[:30, 1] = 1.0
        t[30:, 0] = 1.0
        p = FitProblem(f, t, affine.CROSS_ENTROPY)
        params = AffineParams(np.zeros(2), np.zeros(2))
        for _ in range(3000):
            loss, grad = loss_and_grad(params, p)
            params = AffineParams(params.w - 2.0 * grad[:2], params.b - 2.0 * grad[2:])
        assert loss < 0.1, "oracle: toy must be fittable below 0.1"

        res = fit_affine_lbfgs(p, max_iters=200)
        assert res.final_loss < 0.1

    def test_loss_non_increasing_with_more_iterations(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=40)
        t = np.eye(3)[rng.integers(0, 3, 40)]
        p = FitProblem(f, t, affine.CROSS_ENTROPY)
        losses = [fit_affine_lbfgs(p, max_iters=k).final_loss
                  for k in range(0, 12)]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            FitProblem(np.array([1.0]), np.array([[1.0]]))

    def test_non_finite_targets(self):
        with pytest.raises(ValueError):
            FitProblem(np.array([1.0, 2.0]), np.array([[1.0], [np.inf]]))

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            FitProblem(np.array([1.0, 2.0]), np.ones((2, 1)), "huber")


def fitted_losses(F, targets, kind):
    """A fit of F's rows, its losses, and the losses ``score_rows`` gives."""
    if kind == affine.MSE:
        w, b, degenerate, loss = affine.fit_affine_mse_rows(F, targets)
    else:
        w, b, degenerate, *_, loss = affine.fit_affine_ce_rows(F, targets)
    assert np.isnan(loss[degenerate]).all()
    return loss, evolve.score_rows(F, w, b, targets, kind)


def straddle(row, kept, left, targets, kind, steps=40):
    """Two rows, row(x) on either side of where the fit starts to leave its
    loss to the caller (NaN), bisected geometrically between x = kept and
    x = left."""
    def is_left(x):
        return bool(np.isnan(fitted_losses(row(x)[None], targets, kind)[0][0]))

    assert not is_left(kept) and is_left(left)
    for _ in range(steps):
        mid = math.sqrt(kept * left)
        kept, left = (kept, mid) if is_left(mid) else (mid, left)
    return np.stack([row(kept), row(left)])


def left_rows(F, targets, kind):
    """Which rows' losses the fit leaves to its caller; every loss it keeps
    is within FIT_LOSS_ERROR of the scored one."""
    loss, want = fitted_losses(F, targets, kind)
    kept = ~np.isnan(loss)
    assert (abs(loss[kept] - want[kept]) <= affine.FIT_LOSS_ERROR * want[kept]).all()
    return (~kept).tolist()


class TestFittedLosses:
    """Every loss a fitter returns is within FIT_LOSS_ERROR of the scored
    loss of its row, also on either side of each routing threshold."""

    # ordinary rows, large offsets, a row either side of KAPPA_MAX, constant
    # rows and non-finite rows
    LEFT = [False] * 8 + [True] * 2 + [False, True] + [True] * 4

    def hard_rows(self, rng, targets, kind):
        n = targets.shape[0]
        z = rng.normal(size=n)
        rows = [rng.normal(size=n) * rng.uniform(0.1, 10.0) for _ in range(8)]
        rows += [1e6 + z, 1e12 + z]
        rows += list(straddle(lambda a: a + z, 1.0, 1e5, targets, kind))
        rows += [np.full(n, 3.0), np.full(n, 1e12)]
        rows += [np.where(z > 0, np.inf, z), np.full(n, np.nan)]
        return np.stack(rows)

    @pytest.mark.parametrize("n,width", [(40, 1), (160, 3), (500, 10)])
    def test_mse(self, n, width):
        rng = np.random.default_rng(n + width)
        signal = rng.normal(size=n)
        exact = signal[:, None] * rng.normal(size=width) + 0.5
        targets = exact + 0.3 * rng.normal(size=(n, width))
        assert left_rows(self.hard_rows(rng, targets, affine.MSE), targets,
                         affine.MSE) == self.LEFT
        # fits nearer and nearer exact, either side of CANCEL_MIN
        e = rng.normal(size=n)
        near = straddle(lambda x: signal + x * e, 1.0, 1e-9, exact, affine.MSE)
        assert left_rows(near, exact, affine.MSE) == [False, True]

    @pytest.mark.parametrize("n,width", [(60, 2), (200, 3), (500, 9)])
    def test_cross_entropy(self, n, width):
        rng = np.random.default_rng(n + width)
        signal = rng.normal(size=n)
        targets = ce_targets(rng, n, width, soft=True)
        assert left_rows(self.hard_rows(rng, targets, affine.CROSS_ENTROPY), targets,
                         affine.CROSS_ENTROPY) == self.LEFT
        # hard labels the signal separates better and better: the loss falls
        # toward 0 as the logits grow, either side of the logit-scale rule
        edges = np.quantile(signal, np.linspace(0, 1, width + 1)[1:-1])
        labels = np.eye(width)[np.digitize(signal, edges)]
        e = rng.normal(size=n)
        sharp = straddle(lambda x: signal + x * e, 1.0, 1e-9, labels, affine.CROSS_ENTROPY)
        assert left_rows(sharp, labels, affine.CROSS_ENTROPY) == [False, True]


def reuse_cases():
    """(F, targets) pairs that, between them, take every path of the fit.

    R grows and shrinks, then K goes from 1 to 8.  The last four each take
    one path of the fit: every row accepting its full step, later Armijo
    rounds and rows closing up, no row with spread, no class to fit.
    """
    rng = np.random.default_rng(40)
    cases = []
    for count, n, width in [(2, 30, 2), (9, 50, 2), (1, 20, 2), (5, 45, 2),
                            (3, 25, 9), (6, 40, 9), (2, 30, 2)]:
        t = ce_targets(rng, n, width, soft=count % 2 == 1)
        F = ce_rows(rng, n, count)
        cases.append((np.concatenate([F, np.full((1, n), 3.0)]), t))  # a degenerate row
    # Soft targets that follow the first row: every row accepts its full
    # step at every Newton step, so each step's first Armijo round's
    # candidates become the current logits.  The last row spreads, but its scale underflows to 0,
    # so its g is not finite and it stops at the shared start.
    n = 50
    F = rng.normal(size=(4, n))
    z = 0.5 * F[0][:, None] * np.array([0.0, 1.0, -0.5])
    underflow = np.zeros(n)
    underflow[0] = 3e-162
    cases.append((np.concatenate([F, underflow[None]]),
                  np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)))
    # Separable labels: rows backtrack, accept in later Armijo rounds (some
    # of the pending rows, or all of them), which copy their rows in, and
    # stop in different steps, after which the rest close up.
    n = 12
    x = rng.normal(size=n)
    F = np.stack([x, x + 0.3 * rng.normal(size=n), rng.normal(size=n), x ** 3])
    cases.append((F, np.eye(2)[(x > 0).astype(int)]))
    cases.append((np.full((3, 20), 3.0), ce_targets(rng, 20, 3, True)))  # R = 0
    cases.append((ce_rows(rng, 20, 2), np.ones((20, 1))))                # K = 0
    return cases


class TestCeWorkArrays:
    def test_reused_arrays_give_fresh_fits(self):
        """Fits one after another, of every shape and path, each equal bit
        for bit in every field to the reference that recomputes each
        Newton step's logits, log-sum-exp and loss."""
        for F, t in reuse_cases():
            got = affine.fit_affine_ce_rows(F, t)
            # the reference divides by the underflowed scale outside np.errstate
            with np.errstate(divide="ignore", invalid="ignore"):
                want = fit_affine_ce_rows_recomputing(F, t)
            for name, a, b in zip(got._fields, got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_work_grows_with_classes_not_their_square(self):
        # 9 classes: an (R, K, K, n) temporary would be 8 times the (R, K, n) ones
        rng = np.random.default_rng(41)
        n, C, R = 500, 9, 40
        t = ce_targets(rng, n, C, soft=True)
        F = rng.normal(size=(R, n)) * rng.uniform(0.5, 3.0, size=(R, 1))
        tracemalloc.start()
        try:
            fit = affine.fit_affine_ce_rows(F, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not fit.degenerate.any()
        assert peak < 10 * R * (C - 1) * n * 8
