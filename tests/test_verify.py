"""Tail fitting, distribution distances and the cross-source comparison."""

import itertools

import mpmath
import numpy as np
import pytest

from rtq import verify
from rtq.errors import WindowTooNoisy
from rtq.model import Exponential, ParetoShifted
from rtq.transforms import Pmf


def _power_pmf(kappa_plus_1: float, n: int = 40_000) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=float)
    p = j ** -(kappa_plus_1)
    out = np.zeros(n + 1)
    out[1:] = p / p.sum()
    return out


class TestDistances:
    def test_tv_basics(self):
        a, b = np.array([0.5, 0.5]), np.array([0.5, 0.5])
        assert verify.tv_distance(a, b, 2) == 0.0
        assert verify.tv_distance([1.0, 0.0], [0.0, 1.0], 2) == pytest.approx(1.0)

    def test_tv_symmetry_and_value(self):
        a, b = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        assert verify.tv_distance(a, b, 2) == pytest.approx(0.3)
        assert verify.tv_distance(b, a, 2) == pytest.approx(0.3)

    def test_tv_accepts_samples_and_pmfs(self):
        samples = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        assert verify.tv_distance(samples, [0.4, 0.6], 2) == pytest.approx(0.0)

    def test_empirical_pmf(self):
        p = verify.empirical_pmf(np.array([0, 1, 1, 3]), 4)
        np.testing.assert_allclose(p, [0.25, 0.5, 0.0, 0.25, 0.0])

    def test_empirical_pmf_of_a_huge_draw(self):
        # a draw far beyond n counts as missing mass and costs no memory
        p = verify.empirical_pmf(np.array([0, 1, 1, 2**62]), 2)
        np.testing.assert_array_equal(p, [0.25, 0.5, 0.0])

    def test_survival_of_counts_deficit(self):
        pmf = Pmf(probs=np.array([0.5, 0.3]), deficit=0.2)
        np.testing.assert_allclose(verify.survival_of(pmf), [0.5, 0.2])


class TestFitTail:
    def test_recovers_power_law(self):
        fit = verify.fit_tail(_power_pmf(2.5), (50, 900))
        assert fit.method == "loglog-regression"
        assert fit.kappa == pytest.approx(1.5, rel=0.02)
        assert fit.r2 > 0.999

    def test_pinned_constant(self):
        pmf = _power_pmf(2.5)
        free = verify.fit_tail(pmf, (50, 900))
        pinned = verify.fit_tail(pmf, (50, 900), known_kappa=1.5)
        assert pinned.method == "ratio"
        assert pinned.c == pytest.approx(free.c, rel=0.05)

    def test_scales_out_slow_variation(self):
        pmf = _power_pmf(2.5)
        half = verify.fit_tail(pmf, (50, 900), known_kappa=1.5, L0=0.5)
        full = verify.fit_tail(pmf, (50, 900), known_kappa=1.5, L0=1.0)
        assert half.c == pytest.approx(2.0 * full.c, rel=1e-12)

    def test_window_validation(self):
        pmf = _power_pmf(2.5)
        with pytest.raises(ValueError, match="j >= 10"):
            verify.fit_tail(pmf, (5, 100))
        with pytest.raises(ValueError, match="beyond"):
            verify.fit_tail(pmf, (50, 60_000))

    def test_zero_survival_raises(self):
        pmf = np.zeros(600)
        pmf[:20] = 1.0 / 20
        with pytest.raises(WindowTooNoisy, match="zero"):
            verify.fit_tail(pmf, (50, 500))

    def test_deficit_dominates_raises(self):
        vec = _power_pmf(2.5)
        pmf = Pmf(probs=vec * (1 - 0.01), deficit=0.01)
        with pytest.raises(WindowTooNoisy, match="deficit"):
            verify.fit_tail(pmf, (400, 900))

    def test_flat_then_cliff_is_rejected(self):
        # survival that is constant across most of the window then drops is
        # not a power law; the regression must refuse it
        pmf = np.zeros(1001)
        pmf[:10] = 0.997 / 10
        pmf[800] = 0.003 - 1e-9
        pmf[900] = 1e-9
        with pytest.raises(WindowTooNoisy, match="R\\^2"):
            verify.fit_tail(pmf, (50, 880))


class TestGeometricBranch:
    def test_ratio_on_exact_geometric(self):
        g = 0.4
        pmf = (1 - g) * g ** np.arange(200)
        assert verify.fit_geom_ratio(pmf, (30, 100)) == pytest.approx(g, rel=1e-6)

    def test_light_queue_pmf_matches_unit_contour(self, ref_params, bulk_pmfs):
        light = verify.light_queue_pmf(ref_params, 40)
        np.testing.assert_allclose(
            light.probs, bulk_pmfs["R21"].probs[:41], atol=1e-8
        )
        assert light.deficit == 0.0

    def test_light_queue_pmf_rejects_power_law(self, alt_params):
        with pytest.raises(ValueError, match="light"):
            verify.light_queue_pmf(alt_params, 40)


class TestCompare:
    def test_report_structure(self, bulk_pmfs, million_draws, tail_pmfs, ref_catalog):
        report = verify.compare(
            "R0",
            {"inversion": tail_pmfs["R0"], "sampler": million_draws["R0"],
             "bulk": bulk_pmfs["R0"]},
            50, (50, 1000), ref_catalog["r0"],
        )
        assert report["target"] == "R0"
        assert len(report["tv"]) == 3
        assert all(v < 0.01 for v in report["tv"].values())
        assert report["kappa_rel_err"] < 0.15
        assert report["c_rel_err"] < 0.25
        assert set(report) >= {"target", "tv", "fits", "catalog"}

    def test_geometric_target_uses_ratio(self, ref_params, ref_catalog):
        light = verify.light_queue_pmf(ref_params, 120)
        report = verify.compare("R21", {"inversion": light}, 50, (30, 100),
                                ref_catalog["r21"])
        # geometric entries are judged by their decay ratio, not an exponent
        assert report["kappa_rel_err"] is None
        assert report["c_rel_err"] is not None and report["c_rel_err"] < 0.10


class TestStructuralLemmas:
    def test_report_shape(self):
        checks = verify.check_appendix_lemmas()
        assert len(checks) == 4
        for c in checks:
            assert set(c) >= {"name", "statistic", "predicted", "tolerance", "ok"}
            assert c["tolerance"] > 0

    def test_checks_are_deterministic(self):
        assert verify.check_appendix_lemmas() == verify.check_appendix_lemmas()

    def test_poisson_count_reads_only_the_terms_it_needs(self):
        # the check reads the survival up to j = 1000; the pmf's terms past
        # it change no bit of the statistic
        dist = ParetoShifted(2.5, 1.0)
        surv = 1.0 - np.cumsum(dist.poisson_mixture_pmf(1.0, 4096))
        j = np.arange(100, 1001)
        statistic = float(np.mean(surv[j] / dist.survival(j / 1.0)))
        assert verify._lemma_poisson_count()["statistic"] == statistic

    @pytest.mark.parametrize("dist, t", [
        (ParetoShifted(2.5, 1.0), [0.5, 1.0, 5.0, 40.0, 60.0, 90.0, 140.0]),
        (Exponential(2.0), [0.1, 0.5, 1.0, 3.0, 5.0]),
    ])
    def test_euler_survival_matches_closed_form(self, dist, t):
        t = np.array(t)
        np.testing.assert_allclose(verify._euler_survival(dist.lst, t),
                                   dist.survival(t), rtol=1e-6, atol=0)

    @pytest.mark.parametrize("s", [1.5, 2.5, 4.0])
    def test_zeta_matches_mpmath(self, s):
        assert verify._zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-13, abs=0)

    def test_random_sum_cdf_matches_enumeration(self):
        # every (n, y_1, ..., y_n) with all terms >= 1 and sum at most t; the
        # pmfs on 0..t leave their mass beyond t out, as in the lemma
        t = 6
        rng = np.random.default_rng(1)
        count = np.concatenate([[0.0], rng.random(t)])
        count /= count.sum() * 1.3
        summand = np.concatenate([[0.0], rng.random(t)])
        summand /= summand.sum() * 1.1
        pmf = np.zeros(t + 1)
        for n in range(1, t + 1):
            for ys in itertools.product(range(1, t + 1), repeat=n):
                if sum(ys) <= t:
                    pmf[sum(ys)] += count[n] * np.prod(summand[list(ys)])
        np.testing.assert_allclose(verify._random_sum_cdf(count, summand),
                                   np.cumsum(pmf), rtol=1e-13, atol=0)
