"""Service-law and parameter-block unit tests.

High-precision quadrature (mpmath) provides independent reference values for
the heavy-tailed transform code.
"""

import mpmath as mp
import numpy as np
import pytest

from rtq import model
from rtq.errors import AssumptionViolation, BadParam, Unstable
from rtq.model import (
    Erlang,
    Exponential,
    Mixture,
    ModelParams,
    ParetoShifted,
    ServiceDist,
    _pareto_rule,
    validate,
)


def _mp_lst(dist, s, deriv=False):
    mp.mp.dps = 30
    a, sc = mp.mpf(dist.index), mp.mpf(dist.scale)

    def integrand(t):
        dens = (a / sc) * (1 + t / sc) ** (-(a + 1))
        base = mp.e ** (-s * t) * dens
        return -t * base if deriv else base

    return complex(mp.quad(integrand, [0, mp.inf]))


class TestExponential:
    def test_moments_and_lst(self):
        d = Exponential(10.0 / 3.0)
        assert d.mean == pytest.approx(0.3)
        assert d.moment2 == pytest.approx(2 * 0.3**2)
        s = np.array([0.5, 2.0, 1.0 + 1.0j])
        np.testing.assert_allclose(d.lst(s), d.rate / (d.rate + s), rtol=1e-14)
        np.testing.assert_allclose(
            d.lst_deriv(s), -d.rate / (d.rate + s) ** 2, rtol=1e-14
        )

    def test_equilibrium_is_itself(self):
        d = Exponential(2.0)
        e = d.equilibrium()
        assert e.mean == pytest.approx(d.mean)
        assert complex(e.lst(1.3)) == pytest.approx(complex(d.lst(1.3)))

    def test_tail_descriptor(self):
        t = Exponential(2.0).tail
        assert not t.is_power and t.r == pytest.approx(2.0)

    def test_bad_rate(self):
        with pytest.raises(BadParam):
            Exponential(0.0)


class TestErlang:
    def test_moments_and_lst(self):
        d = Erlang(3, 4.0)
        assert d.mean == pytest.approx(0.75)
        assert d.moment2 == pytest.approx(3 * 4 / 16.0)
        s = np.array([0.7, 2.5, 0.4 + 0.9j])
        np.testing.assert_allclose(d.lst(s), (4.0 / (4.0 + s)) ** 3, rtol=1e-13)

    def test_equilibrium_lst_identity(self):
        d = Erlang(3, 4.0)
        e = d.equilibrium()
        for s in (0.3, 1.7, 5.0, 0.8 + 1.1j):
            expect = (1 - complex(d.lst(s))) / (d.mean * s)
            assert complex(e.lst(s)) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("shape", [1, 2, 3, 7, 40, 200])
    def test_survival_against_mpmath(self, shape):
        # the regularized upper incomplete gamma function Q(shape, rate t)
        d = Erlang(shape, 2.0)
        x = np.array([0.0, 0.5, 3.0, 30.0, 150.0, 400.0])
        expect = [float(mp.gammainc(shape, v, regularized=True)) for v in x]
        np.testing.assert_allclose(d.survival(x / 2.0), expect, rtol=1e-12, atol=0)
        assert d.survival(0.0) == 1.0 and d.survival(np.inf) == 0.0
        assert d.survival(1.5) == d.survival(np.array([1.5]))[0]


class TestParetoShifted:
    def test_from_mean(self):
        d = ParetoShifted.from_mean(2.5, 0.6)
        assert d.scale == pytest.approx(0.9)
        assert d.mean == pytest.approx(0.6)
        assert d.moment2 == pytest.approx(2 * 0.81 / (1.5 * 0.5))
        t = d.tail
        assert t.is_power and t.a == 2.5
        assert t.L0 == pytest.approx(0.9**2.5)

    def test_survival(self):
        d = ParetoShifted(2.5, 0.9)
        for t in (0.0, 1.0, 10.0):
            assert d.survival(t) == pytest.approx((1 + t / 0.9) ** -2.5)

    @pytest.mark.parametrize("s", [0.3, 1.0, 4.0, 1.0 + 1.0j, 0.2 + 2.0j])
    def test_lst_against_quadrature(self, s):
        d = ParetoShifted(2.5, 0.9)
        assert complex(d.lst(s)) == pytest.approx(_mp_lst(d, s), abs=1e-11)

    @pytest.mark.parametrize("s", [0.5, 2.0, 0.6 + 0.8j])
    def test_lst_deriv_against_quadrature(self, s):
        d = ParetoShifted(2.2, 1.1)
        assert complex(d.lst_deriv(s)) == pytest.approx(
            _mp_lst(d, s, deriv=True), abs=1e-10
        )

    def test_lst_on_imaginary_axis(self):
        # the inversion contour maps to Re(s) ~ 0; |lst| must stay <= 1
        d = ParetoShifted.from_mean(2.5, 0.6)
        s = 1j * np.linspace(-3.0, 3.0, 21)
        vals = d.lst(s)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert complex(d.lst(0.0 + 0j)) == pytest.approx(1.0, abs=1e-12)

    def test_halfplane_clamp_and_rejection(self):
        d = ParetoShifted(2.5, 0.9)
        # round-off sized negative real parts are snapped to the axis
        assert complex(d.lst(-1e-12 + 0.5j)) == pytest.approx(
            complex(d.lst(0.5j)), abs=1e-9
        )
        with pytest.raises(BadParam):
            d.lst(-0.1)

    def test_equilibrium_identity(self):
        d = ParetoShifted(2.5, 0.9)
        e = d.equilibrium()
        assert isinstance(e, ParetoShifted) and e.index == pytest.approx(1.5)
        for s in (0.4, 1.3, 0.9 + 0.7j):
            expect = (1 - complex(d.lst(s))) / (d.mean * s)
            assert complex(e.lst(s)) == pytest.approx(expect, abs=1e-10)

    def test_batch_pmf_consistency(self):
        lam, d = 1.0, ParetoShifted.from_mean(2.5, 0.6)
        b = d.poisson_mixture_pmf(lam, 2000)
        assert np.all(b >= 0)
        assert b.sum() == pytest.approx(1.0, abs=1e-6)
        assert (b * np.arange(2001)).sum() == pytest.approx(lam * d.mean, abs=1e-4)
        # power-law batch tail: b_k ~ L0 * a * k^-(a+1) up to slow variation
        k = np.arange(400, 800)
        ratio = b[k] / (d.tail.L0 * d.index * k.astype(float) ** -3.5)
        assert 0.8 < ratio.mean() < 1.25

    def test_sampling(self):
        d = ParetoShifted.from_mean(2.5, 0.6)
        rng = np.random.default_rng(11)
        x = d.sample(rng, 400_000)
        assert np.all(x >= 0)
        assert x.mean() == pytest.approx(0.6, abs=0.01)

    @pytest.mark.parametrize("index", [0.5, 1.5, 2.5, 4.0])
    @pytest.mark.parametrize("s", [0.3, 2.0, 17.0, 1.0 + 1.0j, 0.2 - 2.0j, 1e-9 + 0.3j])
    def test_lst_against_closed_form(self, index, s):
        # DLMF 13.4.4: int_0^inf e^{-s t} (1 + t/c)^{-a-1} dt = c U(1, 1-a, c s),
        # and DLMF 13.3.22: d/dz U(1, b, z) = -U(2, b + 1, z); the rule is
        # the same at every scale, including far from the models' 0.9
        for scale in (0.9, 1e-4, 1e2):
            d, c = ParetoShifted(index, scale), mp.mpf(scale)
            x = c * mp.mpmathify(s)
            expect = complex(index * mp.hyperu(1, 1 - index, x))
            assert abs(complex(d.lst(s)) - expect) < 1e-12, scale
            expect = complex(-index * c * mp.hyperu(2, 2 - index, x))
            assert abs(complex(d.lst_deriv(s)) - expect) < 1e-12, scale

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
    def test_array_calls_match_scalar_calls(self, size):
        # sizes across the kernel's block edges; blocks change only the
        # order of the weighted sums, so the values agree to round-off
        d = ParetoShifted(2.5, 0.9)
        k = np.arange(size)
        s = 0.5 * (1.0 - 0.995 * np.exp(2j * np.pi * k / size)) + 0.01 * k
        val, deriv = d.lst(s), d.lst_deriv(s)
        assert val.shape == deriv.shape == (size,)
        np.testing.assert_allclose(val, [complex(d.lst(x)) for x in s], rtol=0, atol=2e-15)
        np.testing.assert_allclose(
            deriv, [complex(d.lst_deriv(x)) for x in s], rtol=0, atol=2e-15
        )

    def test_scalar_calls_keep_the_imaginary_part(self):
        # at scale 1e-6 the derivative is of order 1e-7 and its imaginary
        # part 1e-13, 3e-7 of it: a complex argument keeps that part
        d = ParetoShifted(4.0, 1e-6)
        s = 1e-9 + 0.3j
        deriv = d.lst_deriv(s)
        assert type(deriv) is np.complex128 and 5e-14 < abs(deriv.imag) < 5e-13
        assert deriv == d.lst_deriv(np.array([s]))[0]

    @pytest.mark.parametrize(
        "index, nodes", [(0.5, 581), (1.5, 338), (2.5, 201), (3.0, 201), (4.0, 201)]
    )
    def test_rule_level(self, index, nodes):
        t, w = _pareto_rule(index)
        assert t.size == w.size == nodes

    def test_bad_params(self):
        with pytest.raises(BadParam):
            ParetoShifted(-1.0, 1.0)
        with pytest.raises(BadParam):
            ParetoShifted(2.0, 0.0)
        with pytest.raises(BadParam):
            ParetoShifted.from_mean(0.9, 1.0)


class TestMixture:
    def test_lst_and_moments(self):
        m = Mixture([0.5, 0.5], [Exponential(2.0), Erlang(2, 5.0)])
        assert m.mean == pytest.approx(0.5 * 0.5 + 0.5 * 0.4)
        for s in (0.6, 1.0 + 0.5j):
            expect = 0.5 * complex(Exponential(2.0).lst(s)) + 0.5 * complex(
                Erlang(2, 5.0).lst(s)
            )
            assert complex(m.lst(s)) == pytest.approx(expect, abs=1e-13)

    def test_equilibrium_identity(self):
        m = Mixture([0.3, 0.7], [Exponential(1.5), Erlang(3, 6.0)])
        e = m.equilibrium()
        for s in (0.5, 2.0):
            expect = (1 - complex(m.lst(s))) / (m.mean * s)
            assert complex(e.lst(s)) == pytest.approx(expect, abs=1e-11)


@pytest.mark.parametrize(
    "dist",
    [
        ParetoShifted(2.5, 0.9),
        Exponential(2.0),
        Erlang(3, 5.0),
        Mixture([0.4, 0.6], [ParetoShifted(2.5, 0.9), Erlang(2, 5.0)]),
    ],
    ids=lambda d: d.kind,
)
@pytest.mark.parametrize("s", [0.7, 0.3 - 1.2j, np.array([0.0, 1e-9 + 0.3j, 2.0 + 0.5j])])
def test_lst_and_deriv_equals_separate_calls(dist, s):
    val, deriv = dist.lst_and_deriv(s)
    np.testing.assert_array_equal(val, dist.lst(s))
    np.testing.assert_array_equal(deriv, dist.lst_deriv(s))
    assert type(val) is type(dist.lst(s)) and type(deriv) is type(dist.lst_deriv(s))


def test_scalar_calls_follow_numpys_convention():
    # a scalar argument, real or complex, gives a complex numpy scalar, the
    # value of the one-element-array call to round-off (numpy's complex
    # multiply can round a 0-d operand and a 1-element array one ulp apart,
    # as for Erlang(2) at 1e-9 + 0.3j); an array keeps its shape
    laws = [
        ParetoShifted(2.5, 0.9),
        Exponential(2.0),
        Erlang(3, 5.0),
        Mixture([0.4, 0.6], [ParetoShifted(2.5, 0.9), Erlang(2, 5.0)]),
    ]
    grid = np.array([[0.0, 0.3, 2.0], [1e-9 + 0.3j, 0.5 - 1.2j, 7.0 + 2.0j]])
    for dist in laws:
        for fn in (dist.lst, dist.lst_deriv):
            for s in (0.3, 1e-9 + 0.3j):
                got = fn(s)
                assert type(got) is np.complex128, (dist, s)
                np.testing.assert_allclose(got, fn(np.array([s]))[0], rtol=1e-15, atol=0)
            assert fn(grid).shape == (2, 3), dist
            np.testing.assert_array_equal(fn(grid), fn(grid.reshape(-1)).reshape(2, 3))


def test_laws_define_only_the_fused_lst():
    # lst and lst_deriv are the two halves of lst_and_deriv, written once in
    # ServiceDist; a law that overrode one of them could drift from its kernel
    laws = [
        cls for cls in vars(model).values()
        if isinstance(cls, type) and issubclass(cls, ServiceDist) and cls is not ServiceDist
    ]
    assert {cls.__name__ for cls in laws} == {"Exponential", "Erlang", "ParetoShifted", "Mixture"}
    for cls in laws:
        assert "lst_and_deriv" in vars(cls), cls.__name__
        assert not {"lst", "lst_deriv"} & set(vars(cls)), cls.__name__


class TestLengthBiased:
    LAWS = [
        Exponential(2.0),
        Erlang(3, 5.0),
        ParetoShifted(4.0, 0.9),
        Mixture([0.4, 0.6], [Exponential(2.0), Erlang(2, 5.0)]),
    ]

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_mean_and_survival(self, dist):
        x = dist.sample_length_biased(np.random.default_rng(21), 200_000)
        assert x.shape == (200_000,) and np.all(x > 0)
        assert x.mean() == pytest.approx(dist.moment2 / dist.mean, rel=0.02)
        # P{T* > t} = (t P{T > t} + int_t^inf P{T > u} du) / E[T]
        m = dist.mean
        for t in (0.5 * m, m, 3.0 * m):
            expect = (t * dist.survival(t) + m * dist.equilibrium().survival(t)) / m
            assert np.mean(x > t) == pytest.approx(float(expect), abs=0.005)

    def test_pareto_with_infinite_biased_mean(self):
        x = ParetoShifted(1.5, 0.5).sample_length_biased(np.random.default_rng(4), 50_000)
        assert x.shape == (50_000,)
        assert np.all(np.isfinite(x)) and np.all(x > 0)

    def test_pareto_needs_a_finite_mean(self):
        with pytest.raises(BadParam):
            ParetoShifted(1.0, 1.0).sample_length_biased(np.random.default_rng(0), 10)


class TestModelParams:
    def test_derived_quantities(self, ref_params):
        p = ref_params
        assert p.lambda1 == pytest.approx(0.5)
        assert p.lambda2 == pytest.approx(0.5)
        assert p.rho1 == pytest.approx(0.3)
        assert p.rho2 == pytest.approx(0.15)
        assert p.rho == pytest.approx(0.45)
        assert p.vartheta == pytest.approx(0.15 / 0.7)
        assert p.psi == pytest.approx(0.45 * 0.5 / (1.0 * 0.55))
        assert p.mixed_service.mean == pytest.approx(0.45)

    def test_validate_passes(self, ref_params, alt_params):
        assert validate(ref_params) is ref_params
        assert validate(alt_params) is alt_params

    def test_validate_rejects_bad_split(self):
        with pytest.raises(BadParam):
            validate(
                ModelParams(1.0, 0.0, 1.0, Exponential(4.0), Exponential(4.0))
            )

    def test_validate_rejects_unstable(self):
        with pytest.raises(Unstable):
            validate(
                ModelParams(4.0, 0.5, 1.0, Exponential(2.0), Exponential(2.0))
            )

    def test_validate_rejects_tail_ordering(self):
        with pytest.raises(AssumptionViolation):
            validate(
                ModelParams(
                    1.0, 0.5, 1.0,
                    ParetoShifted.from_mean(2.5, 0.6),
                    ParetoShifted.from_mean(2.0, 0.3),
                )
            )
