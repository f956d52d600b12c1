"""Monte-Carlo building blocks against their closed-form transforms."""

import numpy as np
import pytest

from rtq import parallel, simulator
from rtq import transforms as T
from rtq import verify
from rtq.decomposition import (
    _BLOCK,
    PAIR_TARGETS,
    SCALAR_TARGETS,
    DecompositionSampler,
)
from rtq.errors import OverflowGuard, RecursionDepthExceeded
from rtq.model import Erlang, Exponential, ModelParams, ParetoShifted


def _draws_tv(draws, pmf, n):
    """Total variation over 0..n-1 between integer draws and a pmf."""
    return verify.tv_distance(verify.empirical_pmf(draws, n), pmf, n)


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
        # the budget comes from the law mean of a root, never the realized
        # roots: 100 roots of 1e6 on a mean of 1 ask for 5e7 services
        # against a budget of a million, and raise before any draw
        ds = DecompositionSampler(ref_params, seed=1)
        state = ds.rng.bit_generator.state
        with pytest.raises(RecursionDepthExceeded, match="exceeded 1000000 services"):
            ds.theta(np.full(100, 1e6), 1.0)
        assert ds.rng.bit_generator.state == state

    def test_default_budget_scales_with_the_tree_size(self):
        # at rho1 = 0.95 an equilibrium-rooted tree has 58 services on
        # average; a budget of 30 services per tree raised on Ka
        params = ModelParams(lam=1.0, q=0.5, mu=1.0,
                             dist1=ParetoShifted.from_mean(2.5, 1.9),
                             dist2=Exponential(50.0))
        assert params.rho1 == pytest.approx(0.95)
        draws = DecompositionSampler(params, seed=3).sample("ka", 10_000)
        assert draws.shape == (10_000,) and np.all(draws >= 0)

    def test_equilibrium_root_with_infinite_mean(self):
        # type-1 index 1.8: the equilibrium root of a Ka tree has index 0.8
        # and no mean, so the default budget counts one service per tree
        params = ModelParams(lam=1.0, q=0.5, mu=1.0,
                             dist1=ParetoShifted.from_mean(1.8, 0.6),
                             dist2=Exponential(10.0 / 3.0))
        assert params.dist1_eq.mean == np.inf
        draws = DecompositionSampler(params, seed=3).sample("ka", 10_000)
        assert _draws_tv(draws, _factor_pmf(params, "ka"), 40) < 0.02

    def test_infinite_mean_root_raises_before_it_grows(self):
        # type-1 index 1.5: K's roots have no mean, so the guard, fixed before
        # any draw, counts one service per tree, and r0's trees exceed it
        params = ModelParams(lam=1.0, q=0.5, mu=1.0,
                             dist1=ParetoShifted.from_mean(1.5, 0.6),
                             dist2=Exponential(10.0 / 3.0))
        with pytest.raises(RecursionDepthExceeded):
            DecompositionSampler(params, seed=0).sample("r0", 50_000)

    @pytest.mark.parametrize("target", SCALAR_TARGETS + PAIR_TARGETS)
    def test_poisson_means_beyond_numpy_raise_typed_errors(self, target):
        # type-1 index 1.05: an equilibrium root of index 0.05 makes Poisson
        # means numpy refuses to draw; every target but xg, h2 and s2 meets
        # one at these seeds, and each raises an rtq error, not ValueError
        params = ModelParams(lam=1.0, q=0.5, mu=1.0,
                             dist1=ParetoShifted.from_mean(1.05, 0.6),
                             dist2=Exponential(10.0 / 3.0))
        raised = 0
        for seed in range(5):
            try:
                DecompositionSampler(params, seed=seed).sample(target, 1000)
            except (RecursionDepthExceeded, OverflowGuard):
                raised += 1
        assert raised == (0 if target in ("xg", "h2", "s2") else 5)

    def test_orbit_input_mean(self, ref_params, sampler):
        # each effective arrival feeds p/(1-rho1) customers to the orbit
        x = sampler.sample_xg(300_000)
        expect = ref_params.p / (1.0 - ref_params.rho1)
        assert x.mean() == pytest.approx(expect, abs=0.01)


class TestTheta:
    """Theta(tau), a busy period whose root lasts tau, at tau = 2."""

    @pytest.mark.parametrize("model", ["ref_params", "alt_params"])
    def test_orbit_input_over_a_fixed_time(self, request, model):
        # the X_g of the Poisson(lam tau) arrivals during tau sum to
        # Poisson(lam2 Theta(tau)), whose PGF is exp(-lam tau (1 - g(z)))
        params = request.getfixturevalue(model)
        ds = DecompositionSampler(params, seed=79)
        draws = ds.rng.poisson(params.lambda2 * ds.theta(np.full(200_000, 2.0), 2.0))
        pmf = T.extract_pmf(lambda z: np.exp(-params.lam * 2.0 * (1.0 - T.eval_g(params, z))),
                            60, radius=0.9)
        assert _draws_tv(draws, pmf, 40) < 0.01

    def test_mean(self, ref_params):
        d = DecompositionSampler(ref_params, seed=80).theta(np.full(200_000, 2.0), 2.0)
        assert d.mean() == pytest.approx(2.0 / (1.0 - ref_params.rho1), rel=0.01)
        assert np.all(d >= 2.0)


class TestScalarFactors:
    @pytest.mark.parametrize("name", ["ka", "kb", "kc", "k"])
    def test_factor_distributions(self, ref_params, sampler, name):
        draws = sampler.sample(name, 200_000)
        pmf = _factor_pmf(ref_params, name)
        assert _draws_tv(draws, pmf, 40) < 0.01

    def test_orbit_given_idle(self, ref_params, sampler, bulk_pmfs):
        draws = sampler.sample_r0(200_000)
        assert _draws_tv(draws, bulk_pmfs["R0"], 50) < 0.01
        assert draws.mean() == pytest.approx(ref_params.psi, abs=0.01)


class TestPairFactors:
    def test_equilibrium_service_marginals(self, ref_params, sampler):
        q, o = sampler.sample_s_pair(2, 200_000)
        p = ref_params
        # each coordinate is a thinned Poisson mixture over the equilibrium
        # type-2 service time
        eq_mean = p.dist2_eq.mean
        assert q.mean() == pytest.approx(p.lambda1 * eq_mean, abs=0.01)
        assert o.mean() == pytest.approx(p.lambda2 * eq_mean, abs=0.01)

    @pytest.mark.parametrize("which,coord", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_difference_quotient_marginals(self, ref_params, sampler, which, coord):
        pair = sampler.sample_h_pair(which, 200_000)
        pmf = _h_marginal_pmf(ref_params, which, coord)
        assert _draws_tv(pair[coord], pmf, 30) < 0.015

    def test_geometric_stage_marginals(self, ref_params, sampler):
        q, o = sampler.sample_m1_pair(200_000)

        def marg(z, coord):
            z = np.asarray(z, dtype=complex)
            one = np.ones_like(z)
            args = (z, one) if coord == 0 else (one, z)
            return T.eval_M1(ref_params, *args)

        for coord, draws in ((0, q), (1, o)):
            pmf = T.extract_pmf(lambda z: marg(z, coord), 40, radius=0.9)
            assert _draws_tv(draws, pmf, 30) < 0.015

    def test_stationary_pairs_match_inversion(self, million_draws, bulk_pmfs):
        for name in ("R11", "R12", "R21", "R22"):
            assert _draws_tv(million_draws[name], bulk_pmfs[name], 50) < 0.01


class TestOtherServiceLaws:
    """The same factor checks on a Pareto type-2 law (length-biased draws by
    rejection) and an Erlang type-2 law (Gamma(k+1) length-biased draws)."""

    @pytest.mark.parametrize("name", ["ka", "kb", "kc"])
    def test_factor_distributions(self, other_model, name):
        params, sampler = other_model
        draws = sampler.sample(name, 200_000)
        assert _draws_tv(draws, _factor_pmf(params, name), 40) < 0.01

    @pytest.mark.parametrize("which,coord", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_difference_quotient_marginals(self, other_model, which, coord):
        params, sampler = other_model
        pair = sampler.sample_h_pair(which, 200_000)
        pmf = _h_marginal_pmf(params, which, coord)
        assert _draws_tv(pair[coord], pmf, 30) < 0.015


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

    def test_unknown_target_draws_nothing(self, ref_params):
        ds, blocks = DecompositionSampler(ref_params, seed=0), []
        with pytest.raises(ValueError, match="unknown target 'r3'"):
            ds.sample_into("r3", 10, blocks.append)
        assert ds.blocks == 0 and blocks == []

    def test_determinism(self, ref_params):
        a = DecompositionSampler(ref_params, seed=9).sample("r0", 500)
        b = DecompositionSampler(ref_params, seed=9).sample("r0", 500)
        np.testing.assert_array_equal(a, b)
        c = DecompositionSampler(ref_params, seed=10).sample("r0", 500)
        assert not np.array_equal(a, c)

    def test_stream_independence(self):
        a = parallel.make_rng(3, 0).random(8)
        b = parallel.make_rng(3, 1).random(8)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, parallel.make_rng(3, 0).random(8))


class TestBlocks:
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_block_edges(self, ref_params, n):
        ds = DecompositionSampler(ref_params, seed=5)
        assert ds.sample("xg", n).shape == (n,)
        a, b = ds.sample("s1", n)
        assert a.shape == b.shape == (n,)
        blocks = -(-n // _BLOCK)
        assert ds.blocks == 2 * blocks

    def test_successive_calls_use_new_blocks(self, ref_params):
        ds = DecompositionSampler(ref_params, seed=5)
        a, b = ds.sample("xg", 1000), ds.sample("xg", 1000)
        assert ds.blocks == 2 and not np.array_equal(a, b)
        np.testing.assert_array_equal(a, DecompositionSampler(ref_params, seed=5).sample("xg", 1000))

    def test_block_i_draws_from_its_own_stream(self, ref_params):
        # block 1 of a fresh sampler is the primitive on spawn key (0, 1)
        drawn = DecompositionSampler(ref_params, seed=6).sample("r0", _BLOCK + 7)
        block = DecompositionSampler(ref_params, seed=6)
        block.rng = parallel.make_rng(6, 0, 1)
        np.testing.assert_array_equal(drawn[_BLOCK:], block.sample_r0(7))

    def test_sample_into_hands_over_blocks_in_order(self, ref_params):
        blocks = []
        DecompositionSampler(ref_params, seed=5).sample_into("s1", 2 * _BLOCK + 1,
                                                              blocks.append)
        assert [b[0].size for b in blocks] == [_BLOCK, _BLOCK, 1]
        joined = DecompositionSampler(ref_params, seed=5).sample("s1", 2 * _BLOCK + 1)
        for col, whole in zip(zip(*blocks), joined):
            np.testing.assert_array_equal(np.concatenate(col), whole)

    @pytest.mark.parametrize("target", SCALAR_TARGETS + PAIR_TARGETS)
    def test_every_block_is_a_tuple_of_columns(self, ref_params, target):
        blocks = []
        DecompositionSampler(ref_params, seed=5).sample_into(target, 20, blocks.append)
        [block] = blocks
        assert type(block) is tuple and len(block) == (2 if target in PAIR_TARGETS else 1)
        assert all(col.shape == (20,) for col in block)

    def test_a_failing_write_stops_the_draws(self, ref_params, monkeypatch):
        # the pool runs at most 2 blocks per worker ahead of the one written
        started = []
        draw = DecompositionSampler.sample_xg

        def recorded(self, n):
            started.append(self.rng.bit_generator.seed_seq.spawn_key[-1])
            return draw(self, n)

        def write(block):
            raise OSError("disk full")

        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 2))
        monkeypatch.setattr(DecompositionSampler, "sample_xg", recorded)
        with pytest.raises(OSError, match="disk full"):
            DecompositionSampler(ref_params, seed=5).sample_into("xg", 10 * _BLOCK, write)
        assert 0 in started and max(started) <= 4

    @pytest.mark.parametrize("target", ["r0", "r1"])
    def test_worker_count_does_not_change_draws(self, ref_params, monkeypatch, target):
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda jobs, cores=cores: min(jobs, cores))
            drawn = DecompositionSampler(ref_params, seed=8).sample(target, 2 * _BLOCK + 1)
            runs.append(drawn if isinstance(drawn, tuple) else (drawn,))
        for one, two in zip(*runs):
            np.testing.assert_array_equal(one, two)

    def test_sampler_and_simulator_keys_differ(self, ref_params, monkeypatch):
        # every stream either pillar opens, recorded in-process
        keys = {"sampler": set(), "simulator": set()}
        pillar = "sampler"

        class Recorded(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                keys[pillar].add(tuple(self.spawn_key))

        monkeypatch.setattr(np.random, "SeedSequence", Recorded)
        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
        ds = DecompositionSampler(ref_params, seed=3)
        ds.sample("r2", _BLOCK + 1)
        ds.sample("xg", 10)
        pillar = "simulator"
        simulator.simulate(ref_params, simulator.SimConfig(max_events=3, seed=3))
        # the first element of a key names the pillar
        assert keys["sampler"] == {(0,), (0, 0), (0, 1), (0, 2)}
        assert keys["simulator"] == {(1, r, k) for r in (0, 1) for k in range(5)}
