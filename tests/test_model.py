"""Service-law and parameter-block unit tests.

High-precision quadrature (mpmath) provides independent reference values for
the heavy-tailed transform code.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rtq import model
from rtq.errors import BadParam, Unstable
from rtq.model import (
    Erlang,
    Exponential,
    Mixture,
    ModelParams,
    ParetoShifted,
    ServiceDist,
)


# the methods that make up a service law
_LAW_METHODS = {
    "mean", "tail", "lst_and_deriv", "survival", "equilibrium",
    "sample", "sample_length_biased",
}


# arguments of the Pareto LST checks, on both sides of |scale s| = 1.4
_LST_POINTS = [0.3, 2.0, 17.0, 1.0 + 1.0j, 0.2 - 2.0j, 1e-9 + 0.3j, 1.4, 1.41, 1e3j, 0.5 + 1.9j]


def _mp_lst(dist, s, deriv=False):
    # 30 digits for this quadrature only: a global setting would carry over
    # to every later mpmath call of the test run
    with mp.workdps(30):
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
        assert 2 * d.mean * d.equilibrium().mean == pytest.approx(2 * 0.3**2)  # E[T^2]
        s = np.array([0.5, 2.0, 1.0 + 1.0j])
        np.testing.assert_allclose(d.lst(s), d.rate / (d.rate + s), rtol=1e-14)
        np.testing.assert_allclose(
            d.lst_deriv(s), -d.rate / (d.rate + s) ** 2, rtol=1e-14
        )

    def test_equilibrium_is_itself(self):
        d = Exponential(2.0)
        assert d.equilibrium() is d

    def test_tail_descriptor(self):
        t = Exponential(2.0).tail
        assert not t.is_power and t.r == pytest.approx(2.0)

    def test_bad_rate(self):
        with pytest.raises(BadParam):
            Exponential(0.0)

    def test_defines_no_law_method(self):
        # the law is written once, in Erlang; Exponential adds a constructor
        assert issubclass(Exponential, Erlang)
        assert not _LAW_METHODS & set(vars(Exponential))

    @pytest.mark.parametrize("rate", [10.0 / 3.0, 2.0, 0.37])
    def test_lst_is_the_shape1_erlang_bit_for_bit(self, rate):
        s = 1.5 * (1.0 - 0.9 * np.exp(2j * np.pi * np.arange(64) / 64))
        val, deriv = Exponential(rate).lst_and_deriv(s)
        erl_val, erl_deriv = Erlang(1, rate).lst_and_deriv(s)
        np.testing.assert_array_equal(val, erl_val)
        np.testing.assert_array_equal(deriv, erl_deriv)
        np.testing.assert_array_equal(val, rate / (rate + s))
        np.testing.assert_array_equal(deriv, -rate / (rate + s) ** 2)

    @pytest.mark.parametrize("method", ["sample", "sample_length_biased"])
    def test_draws_are_the_shape1_erlang_draws(self, method):
        rate = 10.0 / 3.0
        got = getattr(Exponential(rate), method)(np.random.default_rng(5), 1000)
        erl = getattr(Erlang(1, rate), method)(np.random.default_rng(5), 1000)
        np.testing.assert_array_equal(got, erl)

    def test_draws_keep_the_exponential_stream(self):
        # numpy's gamma(1) draws the bits of exponential(), so an
        # exponential law drawn through Erlang keeps numpy's exponential stream
        rate = 10.0 / 3.0
        np.testing.assert_array_equal(
            Exponential(rate).sample(np.random.default_rng(5), 100_000),
            np.random.default_rng(5).exponential(1.0 / rate, 100_000),
        )


class TestErlang:
    def test_moments_and_lst(self):
        d = Erlang(3, 4.0)
        assert d.mean == pytest.approx(0.75)
        assert 2 * d.mean * d.equilibrium().mean == pytest.approx(3 * 4 / 16.0)  # E[T^2]
        s = np.array([0.7, 2.5, 0.4 + 0.9j])
        np.testing.assert_allclose(d.lst(s), (4.0 / (4.0 + s)) ** 3, rtol=1e-13)

    def test_shape1_equilibrium_is_itself(self):
        # an exponential law is its own excess law, written as such: a
        # one-component mixture would spend a draw on picking its component
        d = Erlang(1, 10.0 / 3.0)
        assert d.equilibrium() is d

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

    def test_large_shape_against_mpmath(self):
        # rate^k, rate^(k + 1) and (k - 1)! are all beyond a float at shape
        # 200 and rate 666, but the LST, its derivative and the tail
        # constant rate^(k - 1) / (k - 1)! are not
        k, rate = 200, mp.mpf(666)
        d = Erlang(k, 666.0)
        for s in (0.5, 3.0 + 4.0j, 1e3j, 2e4):
            ratio = rate / (rate + mp.mpmathify(s))
            val, deriv = d.lst_and_deriv(s)
            expect = complex(ratio**k)
            assert abs(complex(val) - expect) <= 1e-12 * abs(expect), s
            expect = complex(-k * ratio ** (k + 1) / rate)
            assert abs(complex(deriv) - expect) <= 1e-12 * abs(expect), s
        L0 = d.tail.L0
        assert math.isfinite(L0)
        assert L0 == pytest.approx(float(rate ** (k - 1) / mp.factorial(k - 1)), rel=1e-12)


class TestParetoShifted:
    def test_from_mean(self):
        d = ParetoShifted.from_mean(2.5, 0.6)
        assert d.scale == pytest.approx(0.9)
        assert d.mean == pytest.approx(0.6)
        # E[T^2] = 2 scale^2 / ((a - 1)(a - 2))
        assert 2 * d.mean * d.equilibrium().mean == pytest.approx(2 * 0.81 / (1.5 * 0.5))
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

    @staticmethod
    def _assert_lst_is_the_closed_form(index, s, scales):
        # DLMF 13.4.4: int_0^inf e^{-s t} (1 + t/c)^{-a-1} dt = c U(1, 1-a, c s),
        # and DLMF 13.3.22: d/dz U(1, b, z) = -U(2, b + 1, z); the derivative
        # is compared relative to its modulus above 1
        for scale in scales:
            d, c = ParetoShifted(index, scale), mp.mpf(scale)
            x = c * mp.mpmathify(s)
            expect = complex(index * mp.hyperu(1, 1 - index, x))
            assert abs(complex(d.lst(s)) - expect) < 1e-13, scale
            expect = complex(-index * c * mp.hyperu(2, 2 - index, x))
            assert abs(complex(d.lst_deriv(s)) - expect) < 1e-13 * max(1.0, abs(expect)), scale

    @pytest.mark.parametrize(
        "index", [0.02, 0.5, 1.0, 1.5, 2.0, 2.000000001, 2.5, 2.999999, 3.0, 3.001, 4.0]
    )
    @pytest.mark.parametrize("s", _LST_POINTS)
    def test_lst_against_closed_form(self, index, s):
        # the kernel is the same at every scale, including far from the
        # models' 0.9, and the indices near integers and the arguments near
        # |c s| = 1.4, where the power series hands over to the continued
        # fraction, are the hard cases
        self._assert_lst_is_the_closed_form(index, s, (0.9, 1e-4, 1e2))

    @pytest.mark.parametrize("index", [171.0, 200.0, 400.0])
    @pytest.mark.parametrize("s", [s for s in _LST_POINTS if s != 1e3j])
    def test_lst_of_a_large_index_against_closed_form(self, index, s):
        # from index 171 on, the power series' n! is beyond the largest
        # float; scale 1e-4 puts every point on the series and 0.9 puts them
        # on both sides of the hand-over.  Where |c s| is near the index, as
        # at scale 1e2 or at 0.9 * 1e3j, mpmath's hyperu takes 0.2 to 3 s a
        # point, so those continued-fraction points are left out
        self._assert_lst_is_the_closed_form(index, s, (0.9, 1e-4))

    @pytest.mark.parametrize("index", [0.8, 1.5, 2.5])
    def test_lst_at_zero_is_exact(self, index):
        # L(0) = 1 and L'(0) = -mean, which is -inf for an index <= 1,
        # without a warning (the suite turns warnings into errors)
        d = ParetoShifted(index, 0.5)
        assert d.lst_and_deriv(0) == (1, -d.mean)

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
    def test_array_calls_match_scalar_calls(self, size):
        # the points lie on both sides of |0.9 s| = 1.4, where the power
        # series hands over to the continued fraction; a point meets the
        # same elementwise arithmetic alone as in an array, so the values
        # agree to round-off
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

    def test_tail_pools_the_heaviest_components(self):
        # equal power indices: the L0 masses scale^index add up by weight
        tail = Mixture([0.3, 0.7], [ParetoShifted(2.5, 1.0), ParetoShifted(2.5, 2.0)]).tail
        assert (tail.r, tail.a) == (0.0, 2.5)
        assert tail.L0 == pytest.approx(0.3 + 0.7 * 2.0**2.5, rel=1e-14)

    def test_tail_of_a_light_and_a_heavy_component(self):
        # the exponential component decays faster and adds nothing
        tail = Mixture([0.5, 0.5], [Exponential(1.0), ParetoShifted(3.0, 1.0)]).tail
        assert (tail.r, tail.a) == (0.0, 3.0)
        assert tail.L0 == pytest.approx(0.5, rel=1e-14)

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
    # ServiceDist; a law that overrode one of them could drift from its
    # kernel.  Exponential inherits its kernel from Erlang.
    laws = [
        cls for cls in vars(model).values()
        if isinstance(cls, type) and issubclass(cls, ServiceDist) and cls is not ServiceDist
    ]
    assert {cls.__name__ for cls in laws} == {"Exponential", "Erlang", "ParetoShifted", "Mixture"}
    for cls in laws:
        assert cls.lst_and_deriv is not ServiceDist.lst_and_deriv, cls.__name__
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
        # E[T^2] / E[T], with E[T^2] = 2 E[T] E[Te]
        assert x.mean() == pytest.approx(2 * dist.equilibrium().mean, rel=0.02)
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

    def test_admits_a_heavier_type2_tail(self):
        # the stationary law needs only rho < 1; a2 > a1 is the tail
        # catalog's assumption, not the model's
        p = ModelParams(1.0, 0.5, 1.0, ParetoShifted.from_mean(3.5, 0.6),
                        ParetoShifted.from_mean(2.5, 0.3))
        assert p.rho == pytest.approx(0.45)

    @pytest.mark.parametrize("lam, q, mu, dist1, match", [
        (1.0, 0.0, 1.0, Exponential(4.0), "q must be"),
        (1.0, 1.0, 1.0, Exponential(4.0), "q must be"),
        (1.0, 1.2, 1.0, Exponential(4.0), "q must be"),
        (0.0, 0.5, 1.0, Exponential(4.0), "arrival rate"),
        (np.inf, 0.5, 1.0, Exponential(4.0), "arrival rate"),
        (np.nan, 0.5, 1.0, Exponential(4.0), "arrival rate"),
        (1.0, 0.5, 0.0, Exponential(4.0), "retrial rate"),
        (1.0, 0.5, np.inf, Exponential(4.0), "retrial rate"),
        (1.0, 0.5, 1.0, ParetoShifted(1.0, 0.5), "dist1 must have a finite"),
        (1.0, 0.5, 1.0, ParetoShifted(0.8, 0.5), "dist1 must have a finite"),
    ], ids=["q=0", "q=1", "q=1.2", "lam=0", "lam=inf", "lam=nan", "mu=0",
            "mu=inf", "index=1", "index=0.8"])
    def test_rejects_out_of_range_values(self, lam, q, mu, dist1, match):
        with pytest.raises(BadParam, match=match):
            ModelParams(lam, q, mu, dist1, Exponential(4.0))

    @pytest.mark.parametrize("lam", [2.0, 2.1, 4.0])
    def test_rejects_unstable_load(self, lam):
        # both means 0.5, so rho = lam / 2
        with pytest.raises(Unstable, match="not stable"):
            ModelParams(lam, 0.5, 1.0, Exponential(2.0), Exponential(2.0))

    def test_validate_rejects_unstable(self):
        # ModelParams validates itself: rho = 2 fails at construction
        with pytest.raises(Unstable):
            ModelParams(4.0, 0.5, 1.0, Exponential(2.0), Exponential(2.0))
