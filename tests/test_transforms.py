"""Fixed points, factorizations and contour inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_forms
from rtq import model
from rtq import transforms as T
from rtq.errors import InversionError
from rtq.model import Erlang, Exponential, ModelParams, ParetoShifted


@pytest.fixture(scope="module")
def exp_params():
    return ModelParams(1.0, 0.5, 1.0, Exponential(2.0), Exponential(10.0 / 3.0))


@pytest.fixture(scope="module")
def erlang_params():
    return ModelParams(1.0, 0.4, 2.0, Erlang(2, 5.0), Exponential(4.0))


class TestFixedPoints:
    def test_alpha_quadratic_oracle(self, exp_params):
        # with an exponential high-priority law the busy-period root solves
        # lam1 a^2 - (nu + s + lam1) a + nu = 0; take the smaller root
        p, nu = exp_params, 2.0
        for s in (0.0, 0.3, 2.0, 0.5 + 1.0j):
            b = nu + s + p.lambda1
            disc = np.sqrt(b**2 - 4 * p.lambda1 * nu + 0j)
            expect = (b - disc) / (2 * p.lambda1)
            assert complex(T.solve_alpha(p, s)) == pytest.approx(
                complex(expect), abs=1e-11
            )

    def test_alpha_solves_its_equation(self, ref_params, erlang_params):
        for p in (ref_params, erlang_params):
            s = np.array([0.1, 1.0, 0.4 + 0.8j])
            a = T.solve_alpha(p, s)
            resid = a - p.dist1.lst(s + p.lambda1 * (1 - a))
            assert np.max(np.abs(resid)) < 1e-11

    def test_h_matches_alpha_composition(self, ref_params, erlang_params):
        for p in (ref_params, erlang_params):
            z = np.linspace(0.0, 1.0, 11) + 0j
            err = np.abs(T.solve_h(p, z) - T.solve_alpha(p, p.lambda2 * (1 - z)))
            assert np.max(err) < 1e-11

    def test_boundary_values(self, ref_params):
        assert complex(T.solve_h(ref_params, 1.0 + 0j)) == pytest.approx(1.0, abs=1e-12)
        assert complex(T.solve_alpha(ref_params, 0.0 + 0j)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("index, q", [(1.05, 0.5), (1.05, 0.3), (1.1, 0.3), (1.1, 0.5),
                                          (1.1, 0.7)])
    def test_h_is_exactly_one_at_one(self, index, q):
        # Newton could stop an ulp short of h(1) = 1, and near type-1 index 1
        # the equilibrium LST turned that ulp into a Ka whose PGF read 0.94
        # to 0.996 at 1, which extract_pmf refused
        p = ModelParams(1.0, q, 1.0, ParetoShifted.from_mean(index, 0.6),
                        Exponential(10.0 / 3.0))
        assert T.solve_h(p, 1.0) == 1.0
        assert T.solve_h(p, np.array([0.5, 1.0, 1.0 + 0j]))[1:].tolist() == [1.0, 1.0]
        assert T.factor_K(p, 1.0).ka == 1.0
        pmf = T.extract_pmf(lambda z: T.factor_K(p, z).ka, 60, 0.8)
        assert np.all(pmf.probs >= 0) and pmf.probs.sum() <= 1.0 + 1e-7

    def test_h_residual_on_the_half_ring(self, ref_params, alt_params):
        # every point of the half ring that conditional_pmfs(n=2000, r=0.995)
        # solves on, m = 8000, must leave Newton's active set converged
        z = T._ring(0.995, 8000)
        for p in (ref_params, alt_params):
            h = T.solve_h(p, z)
            resid = h - p.dist1.lst(p.lam - p.lambda1 * h - p.lambda2 * z)
            assert np.max(np.abs(resid)) <= 1e-12

    def test_g_definition(self, ref_params):
        p = ref_params
        z = 0.37 + 0j
        h = T.solve_h(p, z)
        assert complex(T.eval_g(p, z)) == pytest.approx(
            complex(p.q * h + p.p * z), abs=1e-14
        )


class TestOrbitFactors:
    def test_factors_are_pgfs_at_one(self, ref_params):
        kf = T.factor_K(ref_params, 1.0 + 0j)
        for v in kf:
            assert complex(v) == pytest.approx(1.0, abs=1e-9)

    def test_product_structure(self, ref_params):
        assert T.KFactors._fields == ("ka", "kb", "kc", "k")
        kf = T.factor_K(ref_params, 0.6 + 0j)
        assert complex(kf.k) == pytest.approx(
            complex(kf.ka * kf.kb * kf.kc), abs=1e-13
        )

    def test_branch_continuity_near_one(self, ref_params):
        # Kc is continuous into u = 1
        vals = [complex(T.factor_K(ref_params, 1.0 - eps + 0j).kc)
                for eps in (1e-5, 1e-6, 1e-8, 0.0)]
        for a, b in zip(vals, vals[1:]):
            assert a == pytest.approx(b, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(a1=st.floats(2.0, 4.0, exclude_min=True),
           a2_gap=st.one_of(st.none(), st.floats(0.01, 3.0)),
           m1=st.floats(1e-3, 1e3), m2=st.floats(1e-3, 1e3),
           q=st.floats(0.05, 0.95),
           rho=st.floats(0.05, 0.98, exclude_max=True))
    def test_factors_bounded_on_closed_disk(self, a1, a2_gap, m1, m2, q, rho):
        # the orbit factors are PGFs: at most 1 in modulus on the closed unit
        # disk and exactly 1 at u = 1, including just inside u = 1
        dist2 = (Exponential(1.0 / m2) if a2_gap is None
                 else ParetoShifted.from_mean(a1 + a2_gap, m2))
        p = ModelParams(lam=rho / (q * m1 + (1.0 - q) * m2), q=q, mu=1.0,
                        dist1=ParetoShifted.from_mean(a1, m1), dist2=dist2)
        ring = np.exp(2j * np.pi * np.arange(64) / 64)
        u = np.concatenate([ring, 0.5 * ring, 1.0 - 10.0 ** -np.arange(1.0, 11.0),
                            1.0 + 1e-6j * ring[:8], [1.0]])
        u = u / np.maximum(np.abs(u), 1.0)
        kf = T.factor_K(p, u)
        for name in ("ka", "kb", "kc"):
            v = getattr(kf, name)
            assert np.max(np.abs(v)) <= 1.0 + 1e-12, name
            assert abs(v[-1] - 1.0) <= 1e-10, name

    def test_r0_is_a_pgf_at_one(self, ref_params):
        assert complex(T.eval_R0(ref_params, 1.0 + 0j)) == pytest.approx(
            1.0, abs=1e-10
        )
        mid = complex(T.eval_R0(ref_params, 0.5 + 0j))
        assert 0.0 < mid.real < 1.0 and abs(mid.imag) < 1e-12


class TestStationaryTransforms:
    def test_everything_is_one_at_one(self, ref_params):
        # type-1 index 1.5 leaves beta1e with no mean: its derivative at
        # s = u = 0, the point (1, 1) of H_beta1, reads -inf
        no_eq_mean = ModelParams(1.0, 0.5, 1.0, ParetoShifted.from_mean(1.5, 0.6),
                                 ParetoShifted.from_mean(1.8, 0.3))
        one = 1.0 + 0j
        for p in (ref_params, no_eq_mean):
            for fn in (T.eval_M1, T.eval_M2, T.eval_R1, T.eval_R2,
                       T.eval_H_beta1, T.eval_H_beta2):
                assert complex(fn(p, one, one)) == pytest.approx(1.0, abs=1e-9)
            for i in (1, 2):
                assert complex(T.eval_S_beta(p, i, one, one)) == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_m1_factored_vs_raw(self, ref_params):
        p = ref_params
        for z1, z2 in ((0.2, 0.8), (0.7, 0.3), (0.9, 0.9)):
            assert complex(T.eval_M1(p, z1 + 0j, z2 + 0j)) == pytest.approx(
                complex(paper_forms.eval_M1_raw(p, z1 + 0j, z2 + 0j)), abs=1e-11
            )

    def test_h_beta1_on_z2_one_is_the_equilibrium_lst(self, ref_params):
        # h(1) = 1, so the difference quotient H_beta1(z, 1) is
        # beta1e(lam1 (1 - z)) = S_beta1(z, 1); check it on a deep contour
        p = ref_params
        z = 0.995 * np.exp(2j * np.pi * np.arange(512) / 512)
        one = np.ones_like(z)
        np.testing.assert_allclose(T.eval_H_beta1(p, z, one),
                                   T.eval_S_beta(p, 1, z, one), rtol=0, atol=1e-14)

    def test_kernels_on_z2_one_use_the_equilibrium_lsts(self, alt_params):
        # on z2 = 1, H_beta2 is S_beta2, M1 = (1 - rho1) / (1 - rho1 S_beta1)
        # and M2 = vartheta S_beta2 + 1 - vartheta, with no cancelling
        # difference quotient, even on the r = 0.998 ring
        p = alt_params
        z = 0.998 * np.exp(2j * np.pi * np.arange(2048) / 2048)
        one = np.ones_like(z)
        s1 = T.eval_S_beta(p, 1, z, one)
        s2 = T.eval_S_beta(p, 2, z, one)
        vt = p.vartheta
        for got, expect in ((T.eval_H_beta2(p, z, one), s2),
                            (T.eval_M1(p, z, one), (1 - p.rho1) / (1 - p.rho1 * s1)),
                            (T.eval_M2(p, z, one), vt * s2 + 1 - vt)):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)

    def test_h_beta_limit_branch(self, ref_params):
        # at z1 = h(z2) the divided difference of beta1e is taken at
        # coincident points, where it is the derivative; the quotient just
        # off that point must agree with it
        p = ref_params
        z2 = 0.4 + 0j
        h = complex(T.solve_h(p, z2))
        at_limit = complex(T.eval_H_beta1(p, h, z2))
        nearby = complex(T.eval_H_beta1(p, h + 1e-6, z2))
        assert nearby == pytest.approx(at_limit, rel=1e-4)

    @pytest.mark.parametrize("case", ["ref-erlang-3", "erlang-157"])
    def test_h_beta_against_the_erlang_divided_difference(self, ref_params, case):
        # For an Erlang(k, nu) law, beta(x) = A^k with A = nu / (nu + x), so
        # H_beta_i = (beta(s) - beta(u)) / (m_i (u - s)) has the exact form
        # nu / (m_i (nu + s) (nu + u)) sum_i A^i B^(k-1-i), B at u: no
        # difference is taken.  Check it on the orbit slice as z2 -> 1.
        if case == "ref-erlang-3":
            p = ModelParams(ref_params.lam, ref_params.q, ref_params.mu,
                            ref_params.dist1, Erlang(3, 10.0))
            types = {2: T.eval_H_beta2}
        else:
            p = ModelParams(4.027, 0.5166, 421.56, Erlang(157, 53927.58),
                            Exponential(1.0 / 0.0038))
            types = {1: T.eval_H_beta1, 2: T.eval_H_beta2}
        z2 = 1.0 - 10.0 ** -np.arange(2.0, 10.0) + 0j
        h = T.solve_h(p, z2)
        s = p.lam - p.lambda1 - p.lambda2 * z2
        u = p.lam - p.lambda1 * h - p.lambda2 * z2
        for i, fn in types.items():
            d = p.dist1 if i == 1 else p.dist2
            k, nu = d.shape, d.rate
            a, b = nu / (nu + s), nu / (nu + u)
            powers = np.arange(k)[:, None]
            terms = np.sum(a ** powers * b ** (k - 1 - powers), axis=0)
            exact = nu / (d.mean * (nu + s) * (nu + u)) * terms
            np.testing.assert_allclose(fn(p, np.ones_like(z2), z2), exact, rtol=1e-11, atol=0)

    def test_raw_forms_interior_points(self, ref_params):
        # the raw balance-equation forms hold on the open square; the
        # factored forms extend continuously to the boundary
        p = ref_params
        for z1, z2 in ((0.5, 0.95), (0.95, 0.5), (0.25, 0.25)):
            assert complex(T.eval_R1(p, z1 + 0j, z2 + 0j)) == pytest.approx(
                complex(paper_forms.eval_R1_raw(p, z1 + 0j, z2 + 0j)), abs=1e-9
            )
            assert complex(T.eval_R2(p, z1 + 0j, z2 + 0j)) == pytest.approx(
                complex(paper_forms.eval_R2_raw(p, z1 + 0j, z2 + 0j)), abs=1e-9
            )


def test_evaluators_follow_numpys_convention(alt_params):
    # every public evaluator takes a scalar, real or complex, to a complex
    # numpy scalar, the value of the one-element-array call (to round-off,
    # as for the laws), and keeps an array argument's shape
    p = alt_params
    one_arg = {
        "solve_alpha": lambda p, z: T.solve_alpha(p, 1.0 - z),  # Re s >= 0
        "solve_h": T.solve_h,
        "eval_g": T.eval_g,
        "eval_R0": T.eval_R0,
        **{f"factor_K.{f}": (lambda p, z, f=f: getattr(T.factor_K(p, z), f))
           for f in T.KFactors._fields},
    }
    two_arg = {
        "eval_S_beta1": lambda p, z1, z2: T.eval_S_beta(p, 1, z1, z2),
        "eval_S_beta2": lambda p, z1, z2: T.eval_S_beta(p, 2, z1, z2),
        **{name: getattr(T, name) for name in (
            "eval_H_beta1", "eval_H_beta2", "eval_M1", "eval_M2", "eval_R1", "eval_R2")},
        **{name: getattr(paper_forms, name) for name in (
            "eval_M1_raw", "eval_R1_raw", "eval_R2_raw")},
    }
    evaluators = {name: (lambda z, fn=fn: fn(p, z)) for name, fn in one_arg.items()}
    evaluators.update(
        {name: (lambda z, fn=fn: fn(p, 0.8 * z, z)) for name, fn in two_arg.items()}
    )
    grid = np.array([[0.1, 0.3, 0.5], [0.2 + 0.3j, -0.4 + 0.1j, 0.6j]])
    for name, fn in evaluators.items():
        for z in (0.3, 0.3 + 0.4j):
            got = fn(z)
            assert type(got) is np.complex128, (name, z)
            np.testing.assert_allclose(got, fn(np.array([z]))[0], rtol=1e-15, atol=0,
                                       err_msg=f"{name} at {z}")
        on_grid = fn(grid)
        assert on_grid.shape == (2, 3), name
        np.testing.assert_array_equal(on_grid, fn(grid.reshape(-1)).reshape(2, 3), name)


class TestExtractPmf:
    def test_geometric_exact(self):
        g = 0.35
        pmf = T.extract_pmf(lambda z: (1 - g) / (1 - g * z), 40, radius=0.9)
        expect = (1 - g) * g ** np.arange(41)
        np.testing.assert_allclose(pmf.probs, expect, atol=1e-12)
        assert pmf.deficit == pytest.approx(g**41 * 1, abs=1e-10)

    def test_survival_counts_deficit(self):
        g = 0.5
        pmf = T.extract_pmf(lambda z: (1 - g) / (1 - g * z), 10, radius=0.9)
        surv = pmf.survival()
        np.testing.assert_allclose(surv, g ** np.arange(1, 12), atol=1e-12)

    def test_rejects_bad_radius_and_n(self):
        f = lambda z: np.ones_like(np.asarray(z, dtype=complex))
        with pytest.raises(InversionError):
            T.extract_pmf(f, 10, radius=0.0)
        with pytest.raises(InversionError):
            T.extract_pmf(f, 0, radius=0.9)

    def test_rejects_non_pgf(self):
        with pytest.raises(InversionError):
            T.extract_pmf(lambda z: 0.5 * np.ones_like(np.asarray(z, dtype=complex)),
                          10, radius=0.9)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(InversionError):
            T.extract_pmf(lambda z: 2.0 * z - z**2, 10, radius=0.9)

    def test_rejects_hopeless_roundoff(self):
        g = 0.35
        with pytest.raises(InversionError, match="round-off"):
            T.extract_pmf(lambda z: (1 - g) / (1 - g * z), 500, radius=0.9)

    @pytest.mark.parametrize("m", [45, 44])
    def test_half_ring_matches_full_ring_fft(self, m):
        # a PGF with known coefficients (j + 1) (1 - g)^2 g^j: the real FFT of
        # its half-ring values gives what a complex FFT of all m values does
        g, n, radius = 0.35, 10, 0.9
        f = lambda z: ((1 - g) / (1 - g * z)) ** 2
        j = np.arange(n + 1)
        half = T._ring(radius, m)
        assert half.size == m // 2 + 1
        full = radius * np.exp(2j * np.pi * np.arange(m) / m)
        np.testing.assert_array_equal(half, full[: half.size])
        expect = (np.fft.fft(f(full)) / m)[: n + 1] * radius ** -j
        pmf = T._coeffs_from_ring(f(half), m, n, radius)
        np.testing.assert_allclose(pmf.probs, expect.real, rtol=0, atol=1e-15)
        assert np.max(np.abs(expect.imag)) < 1e-15
        np.testing.assert_allclose(pmf.probs, (j + 1) * (1 - g) ** 2 * g**j, rtol=0, atol=1e-14)

    def test_radius_above_one_for_light_tails(self):
        g = 0.2  # analytic up to 1/g = 5
        pmf = T.extract_pmf(lambda z: (1 - g) / (1 - g * z), 60, radius=2.0)
        expect = (1 - g) * g ** np.arange(61)
        np.testing.assert_allclose(pmf.probs, expect, atol=1e-14)


class TestConditionalPmfs:
    def test_shapes_and_mass(self, bulk_pmfs):
        assert sorted(bulk_pmfs) == ["R0", "R11", "R12", "R21", "R22"]
        for pmf in bulk_pmfs.values():
            assert len(pmf) == 61
            assert np.all(pmf.probs >= 0)
            assert pmf.probs.sum() + pmf.deficit == pytest.approx(1.0, abs=1e-7)

    def test_known_means(self, ref_params, bulk_pmfs):
        p = ref_params
        # orbit-while-idle mean equals the exponent's derivative at 1
        assert bulk_pmfs["R0"].mean() == pytest.approx(p.psi, abs=5e-3)
        # queue-while-serving-type-2 is a Poisson mixture over the
        # equilibrium type-2 service time
        expect = p.lambda1 * p.dist2_eq.mean
        assert bulk_pmfs["R21"].mean() == pytest.approx(expect, abs=1e-6)

    def test_matches_single_inversions(self, ref_params, bulk_pmfs):
        solo = T.extract_pmf(
            lambda z: T.eval_S_beta(ref_params, 2, np.asarray(z, dtype=complex),
                                    np.ones_like(np.asarray(z, dtype=complex))),
            60, radius=0.8)
        np.testing.assert_allclose(bulk_pmfs["R21"].probs, solo.probs, atol=1e-10)

    def test_r11_matches_single_inversion(self, ref_params, bulk_pmfs):
        # the bulk path writes R11 on z2 = 1 through equilibrium LSTs; the
        # public evaluator goes through h, the orbit factors and R0
        solo = T.extract_pmf(
            lambda z: T.eval_R1(ref_params, np.asarray(z, dtype=complex),
                                np.ones_like(np.asarray(z, dtype=complex))),
            60, radius=0.8)
        np.testing.assert_allclose(bulk_pmfs["R11"].probs, solo.probs, atol=1e-10)

    def test_roundoff_guard_applies(self, ref_params):
        with pytest.raises(InversionError, match="round-off"):
            T.conditional_pmfs(ref_params, 500, radius=0.9)

    def test_r0_series_matches_direct_quadrature(self, ref_params):
        # at 4n = 40 points radius**m would be 1e-4; the sized-up contour
        # makes the series agree with quadrature at every point
        series = T.conditional_pmfs(ref_params, 10, radius=0.8)["R0"]
        direct = T.extract_pmf(lambda z: T.eval_R0(ref_params, z), 10, radius=0.8)
        np.testing.assert_allclose(series.probs, direct.probs, rtol=0, atol=1e-8)
        assert series.deficit == pytest.approx(direct.deficit, abs=1e-8)

    def test_odd_ring_matches_full_ring_inversions(self, ref_params):
        # n = 10 at r = 0.8 gives an odd contour, m = 125, so the mirrored
        # half ring has no point at z = -r; the full-ring references use
        # 160 points, where radius**m is 3e-16
        p = ref_params
        pmfs = T.conditional_pmfs(p, 10, radius=0.8)
        for name, fn in (("R12", T.eval_R1), ("R22", T.eval_R2)):
            solo = T.extract_pmf(lambda z, fn=fn: fn(p, np.ones_like(z), z), 40, radius=0.8)
            np.testing.assert_allclose(pmfs[name].probs, solo.probs[:11], rtol=0, atol=1e-10)

    def test_lst_point_budget(self, ref_params, monkeypatch):
        # the half ring and the Newton active set keep the Pareto LST work of
        # the deep inversion near half of what a full-ring pass needs
        points = []
        kernel = model.ParetoShifted.lst_and_deriv

        def counted(self, s):
            points.append(np.size(s))
            return kernel(self, s)

        monkeypatch.setattr(model.ParetoShifted, "lst_and_deriv", counted)
        T.conditional_pmfs(ref_params, 2000, radius=0.995)
        assert 0 < sum(points) <= 55_000

    @pytest.mark.parametrize("index", [2.05, 2.1])
    def test_r0_integral_near_index_two(self, index):
        # K has a (1 - u)^(index - 1) term at u = 1, which the substitution
        # u = 1 - (1 - z) t^2 smooths, so the R0 integral converges here
        p = ModelParams(lam=1.0, q=0.5, mu=1.0,
                        dist1=ParetoShifted.from_mean(index, 0.6),
                        dist2=Exponential(10.0 / 3.0))
        r0 = T.conditional_pmfs(p, 300, radius=0.99)["R0"]
        assert r0.mean() == pytest.approx(p.psi, abs=1e-3)
        assert r0.deficit < 1e-5

    def test_type1_index_one_and_a_half(self):
        # the type-1 equilibrium law has index 0.5 and an infinite mean, so
        # its LST derivative is infinite at 0
        p = ModelParams(lam=1.0, q=0.5, mu=1.0,
                        dist1=ParetoShifted.from_mean(1.5, 0.6),
                        dist2=Exponential(10.0 / 3.0))
        pmfs = T.conditional_pmfs(p, 300, radius=0.99)
        # the orbit survival falls like j^-1.5, so the mean of p_0..p_300
        # falls short of psi by about 0.013
        assert 0.0 < p.psi - pmfs["R0"].mean() < 0.02
        assert pmfs["R0"].deficit < 1e-4
        for pmf in pmfs.values():
            assert pmf.probs.sum() + pmf.deficit == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("radius", [1.0, 1.2])
    def test_rejects_radius_outside_unit_interval(self, ref_params, radius):
        with pytest.raises(InversionError, match="radius"):
            T.conditional_pmfs(ref_params, 10, radius=radius)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_coefficient(self, ref_params, n):
        # as extract_pmf does: n = 0 would give empty pmfs, n < 0 a broadcast error
        with pytest.raises(InversionError, match="n >= 1"):
            T.conditional_pmfs(ref_params, n, radius=0.8)
