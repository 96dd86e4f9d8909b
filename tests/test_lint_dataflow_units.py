"""Unit-checking dataflow analysis (MAYA010, MAYA011, MAYA013): the Unit algebra,
the naming-convention registry, the known-bad fixture corpus, and the
gate asserting the shipped source tree is unit-clean."""

import math
from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint.dataflow import DIMENSIONLESS, UNIT_RULES, Unit, unit_of_name
from repro.lint.dataflow.units import GIGAHERTZ, MEGAHERTZ, SECOND, WATT

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "dataflow_bad"


def units_engine():
    return LintEngine(rules=())


def rule_ids(path):
    return [d.rule_id for d in units_engine().lint_file(path)]


class TestUnitAlgebra:
    def test_watt_is_joule_per_second(self):
        assert WATT.mul(SECOND).same_dims(Unit(dims=(("j", 1),)))

    def test_ghz_and_mhz_share_dims_but_not_scale(self):
        assert GIGAHERTZ.same_dims(MEGAHERTZ)
        assert not GIGAHERTZ.compatible(MEGAHERTZ)
        assert math.isclose(GIGAHERTZ.scale / MEGAHERTZ.scale, 1000.0)

    def test_division_and_power_roundtrip(self):
        assert WATT.div(WATT).is_dimensionless
        assert WATT.pow(2).sqrt().compatible(WATT)

    def test_sqrt_of_odd_exponent_is_unknown(self):
        assert WATT.sqrt() is None

    def test_labels(self):
        assert WATT.label() == "W"
        assert GIGAHERTZ.label() == "GHz"
        assert DIMENSIONLESS.label() == "1"


class TestNameRegistry:
    @pytest.mark.parametrize(
        "name, unit",
        [
            ("static_power_w", WATT),
            ("tdp_w", WATT),
            ("window_power", WATT),
            ("freq_max_ghz", GIGAHERTZ),
            ("uncore_mhz", MEGAHERTZ),
            ("tick_s", SECOND),
            ("volt_min", Unit(dims=(("v", 1),))),
            ("temperature_c", Unit(dims=(("c", 1),))),
        ],
    )
    def test_concrete_units(self, name, unit):
        assert unit_of_name(name).compatible(unit)

    def test_compound_per_names(self):
        resistance = unit_of_name("resistance_c_per_w")
        assert resistance.compatible(Unit(dims=(("c", 1),)).div(WATT))

    @pytest.mark.parametrize("name", ["idle_frac", "activity", "balloon_level"])
    def test_declared_dimensionless(self, name):
        assert unit_of_name(name).is_dimensionless

    @pytest.mark.parametrize("name", ["w", "c", "nhold", "u_norm", "idle_max"])
    def test_silent_names(self, name):
        unit = unit_of_name(name)
        assert unit is None or unit.is_dimensionless

    def test_y_scale_is_not_celsius_or_watts(self):
        # `self._y_scale = plant.y_scale_w` must not be a binding mismatch.
        assert unit_of_name("y_scale") is None


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("units_bad_arithmetic.py", {"MAYA010"}),
            ("units_bad_call.py", {"MAYA011"}),
            ("units_bad_binding.py", {"MAYA013"}),
        ],
    )
    def test_fixture_trips_its_rule(self, name, expected):
        assert set(rule_ids(FIXTURE_DIR / name)) == expected

    def test_arithmetic_fixture_reports_both_dim_and_scale_mismatch(self):
        diags = units_engine().lint_file(FIXTURE_DIR / "units_bad_arithmetic.py")
        messages = [d.message for d in diags]
        assert any("W + GHz" in m for m in messages)
        assert any("GHz + MHz" in m for m in messages)


class TestPolymorphism:
    """The false-positive policy: dimensionless and unknown never report."""

    def check(self, source):
        return units_engine().run_source(source, "probe.py").diagnostics

    def test_literals_are_polymorphic(self):
        assert self.check("def f(tdp_w):\n    return tdp_w + 1.0\n") == []

    def test_declared_fractions_scale_any_unit(self):
        src = "def f(tdp_w, idle_frac):\n    return tdp_w * idle_frac + tdp_w\n"
        assert self.check(src) == []

    def test_unknown_names_propagate_silently(self):
        assert self.check("def f(tdp_w, x):\n    return tdp_w + x\n") == []

    def test_division_changes_dimension(self):
        src = "def f(energy_j, tick_s, tdp_w):\n    return energy_j / tick_s + tdp_w\n"
        assert self.check(src) == []

    def test_mixed_addition_is_reported_interprocedurally(self):
        src = (
            "def helper(freq_ghz):\n"
            "    return freq_ghz\n"
            "def f(tdp_w, freq_ghz):\n"
            "    return tdp_w + helper(freq_ghz)\n"
        )
        assert [d.rule_id for d in self.check(src)] == ["MAYA010"]

    def test_suppression_applies_to_dataflow_rules(self):
        src = "def f(tdp_w, freq_ghz):\n    return tdp_w + freq_ghz  # maya: ignore[MAYA010]\n"
        assert self.check(src) == []


class TestSourceTreeGate:
    """The shipped package must be unit-clean under its own analysis."""

    def test_src_repro_is_unit_clean(self, package_lint):
        diags = [d for d in package_lint.diagnostics if d.rule_id in UNIT_RULES]
        assert diags == [], "\n".join(d.format() for d in diags)
