"""Tests for repro.core (config, Maya design/instance, session runner)."""

import pickle

import numpy as np
import pytest

from repro.core import MayaConfig, default_mask_range, make_machine, run_session
from repro.core.maya import MayaInstance
from repro.defenses import Baseline, MayaDefense
from repro.machine import PowerModel, SYS1, SYS2, SYS3, spawn
from repro.workloads import parsec_program


class TestMayaConfig:
    def test_defaults_reproduce_paper_deployment(self):
        config = MayaConfig()
        assert config.mask_family == "gaussian_sinusoid"
        assert config.interval_s == pytest.approx(0.020)
        assert config.synthesis.guardband == pytest.approx(0.4)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            MayaConfig(interval_s=0.0)

    def test_sysid_budget_floor(self):
        with pytest.raises(ValueError):
            MayaConfig(sysid_intervals=50)

    def test_explicit_mask_range_wins(self):
        config = MayaConfig(mask_range_w=(12.0, 25.0))
        assert config.resolve_mask_range(SYS1) == (12.0, 25.0)


class TestDefaultMaskRange:
    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3])
    def test_band_below_tdp(self, spec):
        low, high = default_mask_range(spec)
        assert high <= spec.tdp_w
        assert low < high

    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3])
    def test_band_reachable_without_application(self, spec):
        """The balloon alone must be able to reach the top of the band."""
        low, high = default_mask_range(spec)
        model = PowerModel(spec, spawn(0, "range", spec.name))
        assert high <= model.max_achievable_power() + 1e-9

    def test_band_floor_above_throttled_hot_app(self):
        """Even the hottest app throttled down must reach the band floor."""
        low, _ = default_mask_range(SYS1)
        model = PowerModel(SYS1, spawn(0, "range-floor"))
        hottest = (
            model.static_power(SYS1.freq_min_ghz)
            + model.app_power(0.85, 1.0, SYS1.freq_min_ghz, SYS1.idle_max)
        )
        assert low >= hottest - 0.5


class TestMayaDesign:
    def test_design_artifacts(self, sys1_design):
        assert sys1_design.plant.fit_r2 > 0.8
        assert sys1_design.controller.is_stable()
        low, high = sys1_design.mask_range_w
        assert low < high <= SYS1.tdp_w

    def test_instantiate_returns_fresh_runtime(self, sys1_design):
        a = sys1_design.instantiate(spawn(1, "inst", 0))
        b = sys1_design.instantiate(spawn(1, "inst", 1))
        assert isinstance(a, MayaInstance)
        assert a.controller is not b.controller
        assert a.mask.generate(20).tolist() != b.mask.generate(20).tolist()

    def test_instances_share_the_design_bank(self, sys1_design):
        """The bank's quantization tables are built once per design."""
        a = sys1_design.instantiate(spawn(1, "inst", 0))
        b = sys1_design.instantiate(spawn(1, "inst", 1))
        assert a.bank is b.bank is sys1_design.bank
        assert a.controller.bank is b.controller.bank is sys1_design.bank
        assert sys1_design.bank.spec is SYS1

    def test_equality_and_hash_are_by_identity(self, sys1_design):
        """Comparing or hashing a design returns instead of raising."""
        copy = pickle.loads(pickle.dumps(sys1_design))
        assert sys1_design == sys1_design
        assert (sys1_design == copy) is False
        assert hash(sys1_design) == hash(sys1_design)
        assert isinstance(hash(copy), int)
        a = sys1_design.instantiate(spawn(1, "inst", 0))
        b = sys1_design.instantiate(spawn(1, "inst", 1))
        assert a.bank is b.bank is sys1_design.bank

    def test_initial_settings_are_command_center(self, sys1_design):
        instance = sys1_design.instantiate(spawn(1, "inst"))
        settings = instance.initial_settings()
        assert settings.freq_ghz == SYS1.freq_max_ghz
        assert settings.idle_frac == 0.0


class TestRunSession:
    def test_fixed_duration(self, sys1_factory):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=0)
        trace = run_session(machine, Baseline(), seed=31, run_id=0, duration_s=4.0)
        assert trace.duration_s == pytest.approx(4.0)
        assert trace.n_intervals == 200

    def test_run_to_completion(self):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=1)
        trace = run_session(machine, Baseline(), seed=31, run_id=1, duration_s=None,
                            tail_s=1.0)
        assert trace.completed
        # Tail: the trace extends ~1 s past completion.
        assert trace.duration_s == pytest.approx(trace.completed_at_s + 1.0, abs=0.3)

    def test_max_duration_cap(self):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=2)
        slowish = run_session(machine, Baseline(), seed=31, run_id=2, duration_s=None,
                              max_duration_s=3.0)
        assert slowish.duration_s <= 3.0 + 1e-9
        assert not slowish.completed

    def test_settings_logged_per_interval(self, sys1_factory):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=3)
        trace = run_session(machine, sys1_factory.create("maya_gs"),
                            seed=31, run_id=3, duration_s=2.0)
        assert trace.settings.shape == (100, 3)
        assert np.all(trace.settings[:, 0] >= SYS1.freq_min_ghz)

    def test_interval_too_short_rejected(self):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=4)
        with pytest.raises(ValueError):
            run_session(machine, Baseline(), duration_s=0.001)

    def test_first_interval_has_no_target(self, sys1_design):
        machine = make_machine(SYS1, parsec_program("bodytrack"), seed=31, run_id=5)
        trace = run_session(machine, MayaDefense(sys1_design),
                            seed=31, run_id=5, duration_s=2.0)
        assert np.isnan(trace.target_w[0])
        assert np.all(np.isfinite(trace.target_w[1:]))

    def test_reproducible_given_seed_and_run_id(self, sys1_design):
        def one():
            machine = make_machine(SYS1, parsec_program("vips"), seed=31, run_id=6)
            return run_session(machine, MayaDefense(sys1_design),
                               seed=31, run_id=6, duration_s=2.0)

        assert np.array_equal(one().power_w, one().power_w)
