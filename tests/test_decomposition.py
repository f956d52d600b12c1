"""Monte-Carlo building blocks against their closed-form transforms."""

import numpy as np
import pytest

from rtq import transforms as T
from rtq import verify
from rtq.decomposition import (
    PAIR_TARGETS,
    SCALAR_TARGETS,
    DecompositionSampler,
    make_rng,
)
from rtq.errors import RecursionDepthExceeded
from rtq.model import Erlang, Exponential, ModelParams, ParetoShifted


def _factor_pmf(params, name, n=60, radius=0.9):
    fn = lambda u: getattr(T.factor_K(params, np.asarray(u, dtype=complex)), name)
    return T.extract_pmf(fn, n, radius=radius, label=name)


def _h_marginal_pmf(params, which, coord):
    fn = T.eval_H_beta1 if which == 1 else T.eval_H_beta2

    def marginal(z):
        z = np.asarray(z, dtype=complex)
        one = np.ones_like(z)
        return fn(params, z, one) if coord == 0 else fn(params, one, z)

    return T.extract_pmf(marginal, 40, radius=0.9)


@pytest.fixture(scope="module")
def erlang_params():
    """ref_params with an Erlang(3) type-2 law of the same mean 0.3."""
    return ModelParams(
        lam=1.0, q=0.5, mu=1.0,
        dist1=ParetoShifted.from_mean(2.5, 0.6),
        dist2=Erlang(3, 10.0),
    )


@pytest.fixture(scope="module", params=["alt_params", "erlang_params"])
def other_model(request):
    """A type-2 law other than the exponential one of ref_params, with its
    own sampler."""
    params = request.getfixturevalue(request.param)
    return params, DecompositionSampler(params, seed=78)


class TestBusyPeriods:
    def test_mean(self, ref_params, sampler):
        d = sampler.busy_durations(200_000)
        expect = ref_params.dist1.mean / (1.0 - ref_params.rho1)
        assert d.mean() == pytest.approx(expect, abs=0.03)
        assert np.all(d > 0)

    def test_node_budget(self, ref_params):
        ds = DecompositionSampler(ref_params, seed=1)
        with pytest.raises(RecursionDepthExceeded):
            ds.busy_durations(100, max_nodes=5)

    def test_default_budget_scales_with_the_tree_size(self):
        # at rho1 = 0.95 an equilibrium-rooted tree has 58 services on
        # average; a budget of 30 services per tree raised on Ka
        params = ModelParams(lam=1.0, q=0.5, mu=1.0,
                             dist1=ParetoShifted.from_mean(2.5, 1.9),
                             dist2=Exponential(50.0))
        assert params.rho1 == pytest.approx(0.95)
        draws = DecompositionSampler(params, seed=3).sample("ka", 10_000)
        assert draws.shape == (10_000,) and np.all(draws >= 0)

    def test_orbit_input_mean(self, ref_params, sampler):
        # each effective arrival feeds p/(1-rho1) customers to the orbit
        x = sampler.sample_xg(300_000)
        expect = ref_params.p / (1.0 - ref_params.rho1)
        assert x.mean() == pytest.approx(expect, abs=0.01)


class TestScalarFactors:
    @pytest.mark.parametrize("name", ["ka", "kb", "kc", "k"])
    def test_factor_distributions(self, ref_params, sampler, name):
        draws = sampler.sample(name, 200_000)
        pmf = _factor_pmf(ref_params, name)
        assert verify.tv_distance(draws, pmf, 40) < 0.01

    def test_orbit_given_idle(self, ref_params, sampler, bulk_pmfs):
        draws = sampler.sample_r0(200_000)
        assert verify.tv_distance(draws, bulk_pmfs["R0"], 50) < 0.01
        assert draws.mean() == pytest.approx(ref_params.psi, abs=0.01)


class TestPairFactors:
    def test_split_preserves_total(self, sampler):
        counts = np.arange(0, 50, dtype=np.int64)
        a, b = sampler.sample_split(counts, 0.3)
        np.testing.assert_array_equal(a + b, counts)
        assert np.all(a >= 0) and np.all(b >= 0)

    def test_equilibrium_service_marginals(self, ref_params, sampler):
        q, o = sampler.sample_s_pair(2, 200_000)
        p = ref_params
        # each coordinate is a thinned Poisson mixture over the equilibrium
        # type-2 service time
        eq_mean = p.dist2.moment2 / (2 * p.dist2.mean)
        assert q.mean() == pytest.approx(p.lambda1 * eq_mean, abs=0.01)
        assert o.mean() == pytest.approx(p.lambda2 * eq_mean, abs=0.01)

    @pytest.mark.parametrize("which,coord", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_difference_quotient_marginals(self, ref_params, sampler, which, coord):
        pair = sampler.sample_h_pair(which, 200_000)
        pmf = _h_marginal_pmf(ref_params, which, coord)
        assert verify.tv_distance(pair[coord], pmf, 30) < 0.015

    def test_geometric_stage_marginals(self, ref_params, sampler):
        q, o = sampler.sample_m1_pair(200_000)

        def marg(z, coord):
            z = np.asarray(z, dtype=complex)
            one = np.ones_like(z)
            args = (z, one) if coord == 0 else (one, z)
            return T.eval_M1(ref_params, *args)

        for coord, draws in ((0, q), (1, o)):
            pmf = T.extract_pmf(lambda z: marg(z, coord), 40, radius=0.9)
            assert verify.tv_distance(draws, pmf, 30) < 0.015

    def test_stationary_pairs_match_inversion(self, million_draws, bulk_pmfs):
        for name in ("R11", "R12", "R21", "R22"):
            assert verify.tv_distance(million_draws[name], bulk_pmfs[name], 50) < 0.01


class TestOtherServiceLaws:
    """The same factor checks on a Pareto type-2 law (length-biased draws by
    rejection) and an Erlang type-2 law (Gamma(k+1) length-biased draws)."""

    @pytest.mark.parametrize("name", ["ka", "kb", "kc"])
    def test_factor_distributions(self, other_model, name):
        params, sampler = other_model
        draws = sampler.sample(name, 200_000)
        assert verify.tv_distance(draws, _factor_pmf(params, name), 40) < 0.01

    @pytest.mark.parametrize("which,coord", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_difference_quotient_marginals(self, other_model, which, coord):
        params, sampler = other_model
        pair = sampler.sample_h_pair(which, 200_000)
        pmf = _h_marginal_pmf(params, which, coord)
        assert verify.tv_distance(pair[coord], pmf, 30) < 0.015


class TestDispatchAndSeeding:
    def test_all_targets_dispatch(self, ref_params):
        ds = DecompositionSampler(ref_params, seed=4)
        for t in SCALAR_TARGETS:
            out = ds.sample(t, 50)
            assert out.shape == (50,) and out.dtype.kind in "if"
        for t in PAIR_TARGETS:
            a, b = ds.sample(t, 50)
            assert a.shape == b.shape == (50,)

    def test_unknown_target(self, ref_params):
        with pytest.raises(ValueError, match="unknown target"):
            DecompositionSampler(ref_params, seed=0).sample("r3", 10)

    def test_determinism(self, ref_params):
        a = DecompositionSampler(ref_params, seed=9).sample("r0", 500)
        b = DecompositionSampler(ref_params, seed=9).sample("r0", 500)
        np.testing.assert_array_equal(a, b)
        c = DecompositionSampler(ref_params, seed=10).sample("r0", 500)
        assert not np.array_equal(a, c)

    def test_stream_independence(self):
        a = make_rng(3, 0).random(8)
        b = make_rng(3, 1).random(8)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, make_rng(3, 0).random(8))
