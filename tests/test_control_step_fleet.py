"""The fleet-wide Equation-1 step must equal B serial steps exactly.

``MatrixController.step_fleet`` replaces B calls of the serial
``MatrixController.step`` in the lock-step kernel.  Its contract is bit
identity: the same settings, ``array_equal`` controller states and equal
diagnostics, for any fleet size and any state, including commands at the
0/1 rails, vanishing errors and saturation in both directions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import MatrixController
from repro.defenses.base import decide_batch
from repro.exec import SessionJob
from repro.machine import SYS1, ActuatorBank, spawn

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


def _assert_same(serial, fleet):
    assert np.array_equal(serial._x_pred, fleet._x_pred)
    assert np.array_equal(serial._u_applied, fleet._u_applied)
    assert serial._z == fleet._z
    assert serial.diagnostics() == fleet.diagnostics()


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
        serial = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                  for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        for k, pair in enumerate(zip(serial, fleet)):
            for controller in pair:
                _seed_state(controller, rails[k % len(rails)],
                            np.random.default_rng([seed, k]))
        y_scale_w = sys1_design.plant.y_scale_w
        for step in range(n_steps):
            targets_w = rng.uniform(5.0, 35.0, size)
            measured_w = np.array([
                _measurement(kinds[(k + step) % len(kinds)], targets_w[k], y_scale_w, rng)
                for k in range(size)
            ])
            expected = [
                controller.step(float(t), float(m))
                for controller, t, m in zip(serial, targets_w, measured_w)
            ]
            assert MatrixController.step_fleet(fleet, targets_w, measured_w) == expected
            for a, b in zip(serial, fleet):
                _assert_same(a, b)

    def test_covers_both_rails_and_anti_windup(self, sys1_design):
        """Extreme errors saturate both ways and freeze the integrator."""
        size = 8
        serial = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                  for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        targets_w = np.full(size, 20.0)
        measured_w = np.where(np.arange(size) % 2 == 0, 500.0, -500.0)
        for _ in range(30):
            expected = [c.step(t, m) for c, t, m in zip(serial, targets_w, measured_w)]
            assert MatrixController.step_fleet(fleet, targets_w, measured_w) == expected
        for a, b in zip(serial, fleet):
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
            MatrixController.step_fleet(controllers, np.full(2, 20.0), np.full(2, 18.0))


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
        serial = self._prepared(sys1_factory, machines)
        rng = np.random.default_rng(3)
        for _ in range(40):
            measured_w = rng.uniform(5.0, 35.0, len(self.DEFENSES))
            expected = [d.decide(float(m)) for d, m in zip(serial, measured_w)]
            assert decide_batch(batched, measured_w) == expected
            for a, b in zip(serial, batched):
                assert np.array_equal(a.current_target_w, b.current_target_w,
                                      equal_nan=True)
                assert a.diagnostics() == b.diagnostics()
