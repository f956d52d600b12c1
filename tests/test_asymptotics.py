"""Tail catalog: cross-entry consistency and the light/heavy branch split."""

import json

import pytest

from rtq.asymptotics import PowerTail, catalog_to_json, tail_catalog
from rtq.errors import NotApplicable
from rtq.model import Erlang, Exponential, ModelParams, ParetoShifted


class TestPowerTail:
    def test_evaluate(self):
        t = PowerTail(c=2.0, kappa=1.5, L0=0.5)
        assert t.evaluate(4) == pytest.approx(2.0 * 4.0**-1.5 * 0.5)

    def test_geometric_ratio(self):
        t = PowerTail(c=1.0, kappa=0.0, geom=0.25)
        assert t.evaluate(11) / t.evaluate(10) == pytest.approx(0.25)

    def test_little_o_has_no_value(self):
        t = PowerTail(c=0.0, kappa=1.5, validity="little-o")
        with pytest.raises(NotApplicable):
            t.evaluate(10)

    def test_round_trip(self):
        d = PowerTail(c=1.5, kappa=2.5, L0=0.7, description="x").to_dict()
        assert d["c"] == 1.5 and d["kappa"] == 2.5 and d["L0"] == 0.7


class TestCatalogConsistency:
    def test_needs_a_power_law(self):
        light = ModelParams(1.0, 0.5, 1.0, Exponential(2.0), Exponential(4.0))
        with pytest.raises(NotApplicable):
            tail_catalog(light)

    def test_orbit_factor_constants_add(self, ref_catalog):
        c = ref_catalog
        assert c["k"].kappa == c["ka"].kappa == c["kb"].kappa == c["kc"].kappa
        assert c["k"].c == pytest.approx(
            c["ka"].c + c["kb"].c + c["kc"].c, rel=1e-12
        )
        assert c["ka_plus_kc"].c == pytest.approx(c["ka"].c + c["kc"].c, rel=1e-12)

    def test_idle_orbit_from_factor_product(self, ref_params, ref_catalog):
        a = ref_params.dist1.tail.a
        expect = (a - 1.0) / a * ref_params.psi * ref_catalog["k"].c
        assert ref_catalog["r0"].c == pytest.approx(expect, rel=1e-12)
        assert ref_catalog["r0"].kappa == pytest.approx(a)

    def test_conditional_orbit_tails_share_exponent(self, ref_params, ref_catalog):
        a = ref_params.dist1.tail.a
        for name in ("r11", "r12", "r22"):
            assert ref_catalog[name].kappa == pytest.approx(a - 1.0)
        assert ref_catalog["r22"].c == pytest.approx(
            ref_catalog["ka_plus_kc"].c, rel=1e-12
        )

    def test_sandwich_ordering(self, ref_catalog):
        lo, mid, hi = (
            ref_catalog["h12_lower"],
            ref_catalog["h12"],
            ref_catalog["h12_upper"],
        )
        assert lo.validity == "lower-bound" and hi.validity == "upper-bound"
        assert lo.c < mid.c < hi.c

    def test_busy_period_constant(self, ref_params, ref_catalog):
        a = ref_params.dist1.tail.a
        assert ref_catalog["busy_period"].c == pytest.approx(
            (1.0 - ref_params.rho1) ** -(a + 1.0), rel=1e-12
        )
        assert ref_catalog["busy_period"].kappa == pytest.approx(a)


class TestBranchSplit:
    def test_light_type2_queue_is_geometric(self, ref_params, ref_catalog):
        entry = ref_catalog["r21"]
        r = ref_params.dist2.tail.r
        assert entry.geom == pytest.approx(
            ref_params.lambda1 / (ref_params.lambda1 + r), rel=1e-12
        )
        assert entry.geom < 1.0

    def test_heavy_type2_queue_is_power(self, alt_params, alt_catalog):
        entry = alt_catalog["r21"]
        assert entry.geom == 1.0
        assert entry.kappa == pytest.approx(alt_params.dist2.tail.a - 1.0)
        assert entry.c == pytest.approx(alt_catalog["s21"].c, rel=1e-12)

    def test_queue_tail_ignores_type1_index(self, ref_params, alt_catalog):
        # the queue-while-serving-type-2 exponent comes from the type-2 law
        # alone, unlike every orbit tail
        assert alt_catalog["r21"].kappa == pytest.approx(3.0)
        assert alt_catalog["r12"].kappa == pytest.approx(
            ref_params.dist1.tail.a - 1.0
        )


class TestSerialization:
    def test_json_round_trip(self, ref_catalog):
        blob = json.loads(catalog_to_json(ref_catalog))
        assert sorted(blob) == sorted(ref_catalog)
        assert blob["r0"]["kappa"] == pytest.approx(ref_catalog["r0"].kappa)
        assert "description" in blob["r0"]

    def test_every_number_is_a_float(self):
        # an Erlang law's tail exponent is an int, -(shape - 1); every entry
        # stores floats, so catalog.json writes -2.0 throughout
        params = ModelParams(1.0, 0.5, 1.0, ParetoShifted.from_mean(2.5, 0.6),
                             Erlang(3, 10.0))
        for name, entry in tail_catalog(params).items():
            for field in ("c", "kappa", "L0", "geom"):
                assert type(getattr(entry, field)) is float, (name, field)
