import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from svyanova.inference import (ParamState, integrated_loglik,
                                augmented_logpseudolikelihood)

from helpers import (cluster_logintegrand, make_instance,
                     quad_cluster_logintegral, single_cluster_instance)


class TestKnownIdentities:
    def test_single_unit_gaussian_convolution(self):
        # one cluster, one unit, unit weights: the marginal of y is
        # N(mu, tau_eps^-1 + tau_a^-1)
        sample, weights, _, _ = make_instance(0, m_max=1, nk_max=1, w_range=(1.0, 1.0))
        y = float(sample.y_s[0][0])
        mu, tau_a, tau_eps = 0.4, 0.9, 1.7
        got = integrated_loglik((mu, tau_a, tau_eps), sample, weights)
        expected = norm.logpdf(y, loc=mu, scale=math.sqrt(1 / tau_eps + 1 / tau_a))
        assert got == pytest.approx(float(expected), rel=1e-12)

    @given(c=st.floats(-50, 50), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, c, seed):
        sample, weights, state, _ = make_instance(seed)
        base = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sample, weights)
        shifted_sample = replace(sample, y=sample.y + c)
        shifted = integrated_loglik((state.mu + c, state.tau_a, state.tau_eps),
                                    shifted_sample, weights)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-7)

    def test_nonpositive_precision_rejected(self):
        sample, weights, _, _ = make_instance(1)
        with pytest.raises(ValueError):
            integrated_loglik((0.0, -1.0, 1.0), sample, weights)
        with pytest.raises(ValueError):
            integrated_loglik((0.0, 1.0, 0.0), sample, weights)


class TestQuadratureOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_adaptive_quadrature_per_cluster(self, seed):
        sample, weights, state, _ = make_instance(seed)
        for k in range(sample.m):
            sub_s, sub_w = single_cluster_instance(sample, weights, k)
            got = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sub_s, sub_w)
            oracle = quad_cluster_logintegral(
                sample.y_s[k], weights.w_jk[k], weights.w_k[k],
                state.mu, state.tau_a, state.tau_eps)
            assert abs(math.expm1(got - oracle)) <= 1e-8

    @pytest.mark.parametrize("seed", [100, 200])
    def test_matches_grid_integration_of_augmented(self, seed):
        # exp(augmented at fixed theta) integrated over an a_k grid matches
        # the closed-form per-cluster marginal
        sample, weights, state, _ = make_instance(seed, m_max=1)
        g = cluster_logintegrand(sample.y_s[0], weights.w_jk[0], weights.w_k[0],
                                 state.mu, state.tau_a, state.tau_eps)
        phi = state.tau_eps * weights.w_jk[0].sum() + state.tau_a * weights.w_k[0]
        h = state.tau_eps * np.sum(weights.w_jk[0] * (sample.y_s[0] - state.mu)) / phi
        width = 12 / math.sqrt(phi)
        grid = np.linspace(h - width, h + width, 20001)
        vals = np.array([g(a) for a in grid])
        log_integral = vals.max() + math.log(
            np.trapezoid(np.exp(vals - vals.max()), grid))
        got = integrated_loglik((state.mu, state.tau_a, state.tau_eps), sample, weights)
        assert got == pytest.approx(log_integral, rel=1e-6, abs=1e-6)

    def test_integrand_consistent_with_augmented_likelihood(self):
        # the per-cluster integrand oracle is the augmented log likelihood
        # restricted to one cluster
        sample, weights, state, _ = make_instance(5, m_max=1)
        g = cluster_logintegrand(sample.y_s[0], weights.w_jk[0], weights.w_k[0],
                                 state.mu, state.tau_a, state.tau_eps)
        st0 = ParamState(state.mu, state.tau_a, state.tau_eps,
                         np.array([float(state.a[0])]))
        assert g(float(state.a[0])) == pytest.approx(
            augmented_logpseudolikelihood(st0, sample, weights), rel=1e-12)
