"""Discrete-event simulator checks: balance laws, guards, determinism."""

import numpy as np
import pytest

from rtq import parallel, simulator
from rtq.errors import BadParam, InsufficientData, Unstable
from rtq.model import Erlang, Exponential, ModelParams
from rtq.simulator import BUSY1, BUSY2, IDLE, TARGET_STATES, SimConfig, SimResult, simulate


def _erlang_params():
    return ModelParams(1.0, 0.5, 1.0, Exponential(2.0), Erlang(3, 6.0))


@pytest.fixture(scope="module")
def quick_sim(ref_params):
    return simulate(ref_params, SimConfig(max_events=300_000, seed=5))


class TestBalanceLaws:
    def test_state_fractions(self, ref_params, quick_sim):
        p = ref_params
        target = np.array([1.0 - p.rho, p.rho1, p.rho2])
        frac = quick_sim.state_fractions()
        assert frac.sum() == pytest.approx(1.0, abs=1e-12)
        err = np.abs(frac - target)
        assert np.all(err <= 3.0 * quick_sim.state_fraction_stderr() + 1e-9)

    def test_erlang_service_occupancies(self):
        # type-2 services come from Erlang.sample: mean 0.5, so rho2 = 0.25
        p = _erlang_params()
        res = simulate(p, SimConfig(max_events=200_000, seed=9))
        err = np.abs(res.state_fractions() - [1.0 - p.rho, p.rho1, p.rho2])
        assert np.all(err <= 4.0 * res.state_fraction_stderr())

    def test_poisson_arrivals_see_time_averages(self, quick_sim):
        np.testing.assert_allclose(
            quick_sim.pasta_fractions(), quick_sim.state_fractions(), atol=0.01
        )

    def test_histogram_accounting(self, quick_sim):
        for s in (IDLE, BUSY1, BUSY2):
            total = sum(quick_sim.hist[s].values())
            assert total == pytest.approx(quick_sim.time_in_state[s], rel=1e-9)
            joint = quick_sim.joint_pmf(s)
            assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_queue_empty_while_idle(self, quick_sim):
        # an idle server admits any high-priority arrival immediately, so no
        # one is ever waiting in the priority queue during idle periods
        assert all(k >> 32 == 0 for k in quick_sim.hist[IDLE])

    def test_conditional_pmf_normalized(self, quick_sim):
        for law, (state, shift) in TARGET_STATES.items():
            pmf = quick_sim.conditional_pmf(law)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pmf >= 0)
            # the marginal of the joint pmf's (queue, orbit) keys
            marginal = np.zeros(pmf.size)
            for key, w in quick_sim.joint_pmf(state).items():
                marginal[key[0] if shift else key[1]] += w
            np.testing.assert_allclose(pmf, marginal, rtol=1e-12, atol=1e-15)


class TestGuards:
    def test_rejects_unstable(self):
        # the check sits in ModelParams, so simulate never sees rho >= 1
        with pytest.raises(Unstable):
            bad = ModelParams(4.0, 0.5, 1.0, Exponential(2.0), Exponential(2.0))
            simulate(bad, SimConfig(max_events=1000))

    def test_insufficient_data(self):
        rare = ModelParams(1.0, 0.99, 1.0, Exponential(4.0), Exponential(4.0))
        res = simulate(rare, SimConfig(max_events=50_000, seed=1))
        assert res.time_in_state[BUSY2] / res.collected_time < 0.01
        with pytest.raises(InsufficientData):
            res.conditional_pmf("R22")

    def test_unknown_law(self, quick_sim):
        for law in ("R3", "idle", "r0"):
            with pytest.raises(KeyError):
                quick_sim.conditional_pmf(law)


class TestRegenerativeErrors:
    def test_cycles_split_the_run(self, quick_sim):
        # every completed cycle starts and ends empty and idle, so the
        # cycles cover the run up to the last regeneration
        cycles = quick_sim.cycles
        assert cycles.shape[1] == 3 and len(cycles) > 1000
        assert np.all(cycles[:, IDLE] > 0) and np.all(cycles >= 0)
        assert np.all(cycles.sum(axis=0) <= quick_sim.time_in_state * (1 + 1e-12))

    @pytest.mark.parametrize("model", ["ref", "erlang"])
    def test_stderr_matches_spread_across_seeds(self, ref_params, model):
        # 40 independent runs: the spread of their state fractions is what
        # each run's stderr claims to estimate
        p = ref_params if model == "ref" else _erlang_params()
        runs = [simulate(p, SimConfig(max_events=20_000, seed=s)) for s in range(40)]
        spread = np.std([r.state_fractions() for r in runs], axis=0, ddof=1)
        claimed = np.mean([r.state_fraction_stderr() for r in runs], axis=0)
        assert np.all((0.7 <= spread / claimed) & (spread / claimed <= 1.4)), spread / claimed

    def test_stderr_is_the_ratio_clt(self):
        cycles = np.array([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        res = SimResult(events=9, collected_time=6.5, time_in_state=np.array([4.5, 1.0, 1.0]),
                        cycles=cycles, hist=[{}, {}, {}],
                        arrivals_seen=np.array([3, 1, 1]))
        tau = [2.0, 3.0, 1.0]
        r = [4.0 / 6, 1.0 / 6, 1.0 / 6]
        want = [
            (sum((c[s] - r[s] * t) ** 2 for c, t in zip(cycles, tau)) / 2) ** 0.5
            / (2.0 * 3 ** 0.5)
            for s in range(3)
        ]
        np.testing.assert_allclose(res.state_fraction_stderr(), want, rtol=1e-12)

    def test_fewer_than_two_cycles(self, ref_params):
        res = simulate(ref_params, SimConfig(max_events=1))
        assert res.events == 1 and len(res.cycles) == 0
        np.testing.assert_array_equal(res.pasta_fractions(), [1.0, 0.0, 0.0])
        with pytest.raises(InsufficientData):
            res.state_fraction_stderr()
        res = SimResult(events=4, collected_time=2.0, time_in_state=np.array([1.0, 1.0, 0.0]),
                        cycles=np.array([[1.0, 1.0, 0.0]]), hist=[{}, {}, {}],
                        arrivals_seen=np.array([1, 0, 0]))
        with pytest.raises(InsufficientData, match="1 completed"):
            res.state_fraction_stderr()

    def test_rejects_no_events(self):
        with pytest.raises(BadParam):
            SimConfig(max_events=0)


class TestDeterminism:
    def test_same_seed_same_run(self, ref_params):
        cfg = SimConfig(max_events=50_000, seed=3)
        a, b = simulate(ref_params, cfg), simulate(ref_params, cfg)
        assert a.collected_time == b.collected_time
        np.testing.assert_array_equal(a.time_in_state, b.time_in_state)
        np.testing.assert_array_equal(a.cycles, b.cycles)
        assert a.hist == b.hist

    def test_worker_count_does_not_change_the_run(self, ref_params, monkeypatch):
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda jobs, cores=cores: min(jobs, cores))
            runs.append(simulate(ref_params, SimConfig(max_events=50_001, seed=3)))
        a, b = runs
        assert a.collected_time == b.collected_time and a.hist == b.hist
        np.testing.assert_array_equal(a.time_in_state, b.time_in_state)
        np.testing.assert_array_equal(a.cycles, b.cycles)
        np.testing.assert_array_equal(a.arrivals_seen, b.arrivals_seen)

    @pytest.mark.parametrize("events, split", [(1, [1, 0]), (3, [2, 1]), (10, [5, 5])])
    def test_replicas_split_the_events(self, ref_params, monkeypatch, events, split):
        budgets = []
        replica = simulator._replica

        def recorded(job):
            budgets.append(job[3])
            return replica(job)

        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
        monkeypatch.setattr(simulator, "_replica", recorded)
        res = simulate(ref_params, SimConfig(max_events=events, seed=2))
        assert budgets == split and res.events == events
        # each replica starts empty and idle, so its first event is an arrival
        # there; a replica of no events adds only zeros
        assert res.arrivals_seen[IDLE] >= np.count_nonzero(split)

    def test_seed_changes_run(self, ref_params):
        a = simulate(ref_params, SimConfig(max_events=50_000, seed=3))
        b = simulate(ref_params, SimConfig(max_events=50_000, seed=4))
        assert not np.array_equal(a.time_in_state, b.time_in_state)
