"""The fleet-wide Equation-1 step must equal B one-row steps exactly.

``MatrixController.step`` is a one-row ``ControllerFleet`` step, so a
B-row fleet, kept across steps, is checked against B independent one-row
steps: the same settings, ``array_equal`` controller states and equal
diagnostics once written back, for any fleet size and any state,
including commands at the 0/1 rails, vanishing errors and saturation in
both directions.  ``tests/test_golden_traces.py`` pins the absolute bits
of the one-row step (a digest of 480 steps, computed by the serial step
it replaced) and of whole traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ControllerFleet, MatrixController
from repro.defenses import DefenseFleet
from repro.exec import SessionJob
from repro.machine import SYS1, ActuatorBank, ActuatorSettings, spawn

#: How a row's measurement relates to its target in one step.
ERROR_KINDS = ("random", "zero", "tiny", "far_above", "far_below")
#: Where a row's previously applied command sits in the normalized box.
RAIL_KINDS = ("interior", "all_low", "all_high", "mixed")


def _measurement(kind, target_w, y_scale_w, rng):
    if kind == "zero":
        return target_w
    if kind == "tiny":  # |error| < 1e-12 after normalization
        return target_w + rng.uniform(-1.0, 1.0) * 1e-13 * y_scale_w
    if kind == "far_above":  # measured far above target: drive power down
        return target_w + rng.uniform(20.0, 200.0)
    if kind == "far_below":
        return target_w - rng.uniform(20.0, 200.0)
    return target_w + rng.normal(0.0, 5.0)


def _seed_state(controller, rail, rng):
    """Put ``controller`` in a random state with its command at ``rail``."""
    n_states = controller._x_pred.size
    controller._x_pred = rng.normal(0.0, 1.0, n_states) * 10.0 ** rng.integers(-3, 2)
    controller._z = float(rng.normal(0.0, 5.0))
    if rail == "interior":
        u_norm = rng.uniform(0.0, 1.0, 3)
    elif rail == "all_low":
        u_norm = np.zeros(3)
    elif rail == "all_high":
        u_norm = np.ones(3)
    else:
        u_norm = rng.choice([0.0, 1.0], size=3)
    controller._u_applied = u_norm - controller._u_op


def _settings(levels):
    return [ActuatorSettings(*row) for row in levels.tolist()]


def _assert_same(alone, fleet):
    assert np.array_equal(alone._x_pred, fleet._x_pred)
    assert np.array_equal(alone._u_applied, fleet._u_applied)
    assert alone._z == fleet._z
    assert alone.diagnostics() == fleet.diagnostics()


class TestStepFleet:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=40),
        n_steps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kinds=st.lists(st.sampled_from(ERROR_KINDS), min_size=1, max_size=5),
        rails=st.lists(st.sampled_from(RAIL_KINDS), min_size=1, max_size=4),
    )
    def test_matches_serial_steps(self, sys1_design, size, n_steps, seed, kinds, rails):
        rng = np.random.default_rng(seed)
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                  for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        for k, pair in enumerate(zip(alone, fleet)):
            for controller in pair:
                _seed_state(controller, rails[k % len(rails)],
                            np.random.default_rng([seed, k]))
        y_scale_w = sys1_design.plant.y_scale_w
        stepped = ControllerFleet(fleet)
        for step in range(n_steps):
            targets_w = rng.uniform(5.0, 35.0, size)
            measured_w = np.array([
                _measurement(kinds[(k + step) % len(kinds)], targets_w[k], y_scale_w, rng)
                for k in range(size)
            ])
            expected = [
                controller.step(float(t), float(m))
                for controller, t, m in zip(alone, targets_w, measured_w)
            ]
            assert _settings(stepped.step(targets_w, measured_w)) == expected
            stepped.write_back()
            for a, b in zip(alone, fleet):
                _assert_same(a, b)

    def test_covers_both_rails_and_anti_windup(self, sys1_design):
        """Extreme errors saturate both ways and freeze the integrator."""
        size = 8
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                  for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        targets_w = np.full(size, 20.0)
        measured_w = np.where(np.arange(size) % 2 == 0, 500.0, -500.0)
        stepped = ControllerFleet(fleet)
        for _ in range(30):
            expected = [c.step(t, m) for c, t, m in zip(alone, targets_w, measured_w)]
            assert _settings(stepped.step(targets_w, measured_w)) == expected
        stepped.write_back()
        for a, b in zip(alone, fleet):
            _assert_same(a, b)
        diagnostics = [c.diagnostics() for c in fleet]
        assert any(d["sat_hi"] for d in diagnostics)
        assert any(d["sat_lo"] for d in diagnostics)
        assert all(d["antiwindup_steps"] > 0 for d in diagnostics)

    def test_rejects_mixed_designs(self, sys1_design, sys1_constant_design):
        controllers = [
            MatrixController(sys1_design.controller, ActuatorBank(SYS1)),
            MatrixController(sys1_constant_design.controller, ActuatorBank(SYS1)),
        ]
        with pytest.raises(ValueError, match="share a design"):
            ControllerFleet(controllers)

    def test_kept_rows_continue_and_dropped_rows_are_written_back(self, sys1_design):
        size = 6
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        rng = np.random.default_rng(11)
        stepped = ControllerFleet(fleet)
        members = list(range(size))
        for step in range(12):
            if step in (4, 9):
                kept = [k for k in range(len(members)) if (k + step) % 3]
                dropped = [members[k] for k in range(len(members)) if k not in kept]
                stepped.write_back(np.setdiff1d(np.arange(len(members)), kept))
                stepped.keep(np.array(kept))
                members = [members[k] for k in kept]
                for index in dropped:
                    _assert_same(alone[index], fleet[index])
            targets_w = rng.uniform(5.0, 35.0, len(members))
            measured_w = targets_w + rng.normal(0.0, 8.0, len(members))
            expected = [
                alone[index].step(float(t), float(m))
                for index, t, m in zip(members, targets_w, measured_w)
            ]
            assert _settings(stepped.step(targets_w, measured_w)) == expected
        stepped.write_back()
        for index in members:
            _assert_same(alone[index], fleet[index])


class TestDecideBatch:
    DEFENSES = ("maya_gs", "baseline", "maya_constant", "random_inputs",
                "maya_uniform", "maya_gs", "maya_constant")

    def _prepared(self, factory, machines):
        defenses = []
        for index, (name, machine) in enumerate(zip(self.DEFENSES, machines)):
            defense = factory.create(name)
            defense.prepare(machine, spawn(5, "decide-batch", index))
            defenses.append(defense)
        return defenses

    def test_mixed_maya_families_match_decide(self, sys1_factory):
        machines = [
            SessionJob.for_factory(sys1_factory, workload="volrend", defense=name,
                                   run_id=index).build_machine()
            for index, name in enumerate(self.DEFENSES)
        ]
        batched = self._prepared(sys1_factory, machines)
        alone = self._prepared(sys1_factory, machines)
        rng = np.random.default_rng(3)
        fleet = DefenseFleet(batched)
        assert _settings(fleet.levels) == [d.initial_settings() for d in alone]
        # Blocks of mask targets of uneven length, drawn ahead.
        for block in (1, 7, 13, 19):
            fleet.draw(block)
            for _ in range(block):
                measured_w = rng.uniform(5.0, 35.0, len(self.DEFENSES))
                expected = [d.decide(float(m)) for d, m in zip(alone, measured_w)]
                assert _settings(fleet.decide(measured_w)) == expected
                fleet.write_back()
                for a, b in zip(alone, batched):
                    assert np.array_equal(a.current_target_w, b.current_target_w,
                                          equal_nan=True)
                    assert a.diagnostics() == b.diagnostics()

    def test_kept_rows_match_decide(self, sys1_factory):
        machines = [
            SessionJob.for_factory(sys1_factory, workload="volrend", defense=name,
                                   run_id=index).build_machine()
            for index, name in enumerate(self.DEFENSES)
        ]
        batched = self._prepared(sys1_factory, machines)
        alone = self._prepared(sys1_factory, machines)
        rng = np.random.default_rng(4)
        fleet = DefenseFleet(batched)
        members = list(range(len(self.DEFENSES)))
        fleet.draw(30)
        for step in range(30):
            if step in (6, 17):
                kept = [k for k in range(len(members)) if (k + step) % 3]
                dropped = [members[k] for k in range(len(members)) if k not in kept]
                fleet.keep(kept)
                members = [members[k] for k in kept]
                for index in dropped:
                    assert np.array_equal(alone[index].current_target_w,
                                          batched[index].current_target_w, equal_nan=True)
                    assert alone[index].diagnostics() == batched[index].diagnostics()
            measured_w = rng.uniform(5.0, 35.0, len(members))
            expected = [alone[index].decide(float(m)) for index, m in zip(members, measured_w)]
            assert _settings(fleet.decide(measured_w)) == expected
        fleet.write_back()
        for index in members:
            assert np.array_equal(alone[index].current_target_w,
                                  batched[index].current_target_w, equal_nan=True)
            assert alone[index].diagnostics() == batched[index].diagnostics()
