"""The fleet-wide Equation-1 step must equal B one-row steps exactly.

``MatrixController.step`` steps a resident one-row ``ControllerFleet``,
so a B-row fleet, kept across steps, is checked against B independent
one-row steps: the same settings, ``array_equal`` controller states and
equal diagnostics once written back, for any fleet size and any state,
including commands at the 0/1 rails, vanishing errors and saturation in
both directions, and for write-backs at any step (the fleet settles its
counters only then).  The step's per-command tables are checked entry by
entry against the scalar expressions they stand for.
``tests/test_golden_traces.py`` pins the absolute bits of the one-row
step (a digest of 480 steps, computed by the serial step it replaced)
and of whole traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ControllerFleet, MatrixController
from repro.control.controller import _ERROR_EDGES
from repro.defenses import DefenseFleet
from repro.exec import SessionJob
from repro.machine import SYS1, ActuatorBank, ActuatorSettings, JointLevels, spawn

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


def _settings(index, levels=None):
    """The settings of joint level indices (default: SYS1's level grid)."""
    triples = ActuatorBank(SYS1).level_grid() if levels is None else levels.triples
    return [ActuatorSettings(*row) for row in triples[index].tolist()]


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


def _scalar_frozen(error, u_applied, controller):
    """The anti-windup test of one row, in Python scalars."""
    if abs(error) < 1e-12:
        return False
    railed = []
    for u, u_op, sign in zip(u_applied.tolist(), controller._u_op.tolist(),
                             controller._rail_signs.tolist()):
        u_prev = u + u_op
        railed.append(u_prev >= 1.0 if error * sign > 0 else u_prev <= 0.0)
    return all(railed)


#: Normalized errors at and around the anti-windup test's case edges.
EDGE_ERRORS = (
    -np.inf, -1.0, -1e-12, float(np.nextafter(-1e-12, 0.0)), -5e-13, -0.0, 0.0,
    5e-13, float(np.nextafter(1e-12, 0.0)), 1e-12, 1.0, np.inf, np.nan,
)


class TestCommandTables:
    def test_entries_are_the_scalar_values(self, sys1_design):
        bank = ActuatorBank(SYS1)
        controller = MatrixController(sys1_design.controller, bank)
        off_grid = np.array([0.3, -0.2, 0.7]) - controller._u_op
        controller._u_applied = off_grid
        fleet = ControllerFleet([controller])
        grid_tables, start_tables = fleet._grid, fleet._tables
        dvfs, idle, balloon = (actuator.levels.tolist() for actuator in bank.actuators)
        grid = [(f, i, b) for f in dvfs for i in idle for b in balloon]
        assert len(grid_tables.levels) == len(grid) == 9 * 13 * 11
        plant_ss = sys1_design.controller.plant_ss
        for command, levels in enumerate(grid):
            assert grid_tables.levels[command].tolist() == list(levels)
            expected = np.array([
                actuator.normalize(level) for actuator, level in zip(bank.actuators, levels)
            ]) - controller._u_op
            assert np.array_equal(grid_tables.u_applied[command], expected)
        # The fleet's starting command has its own table, as given.
        assert start_tables.levels is None
        assert np.array_equal(start_tables.u_applied, [off_grid])
        for tables in (grid_tables, start_tables):
            for command, u_applied in enumerate(tables.u_applied):
                assert np.array_equal(tables.d_u[command:command + 1], plant_ss.d @ u_applied)
                assert np.array_equal(tables.b_u[command], plant_ss.b @ u_applied)
                for error in EDGE_ERRORS:
                    case = _ERROR_EDGES.searchsorted(np.array([error]))[0]
                    assert tables.frozen[case, command] == _scalar_frozen(
                        error, u_applied, controller
                    ), (command, error)

    def test_tables_cover_every_rail_pattern(self, sys1_design):
        tables = ControllerFleet(
            [MatrixController(sys1_design.controller, ActuatorBank(SYS1))]
        )._grid
        # Some commands freeze for each signed case, none in the vanishing one.
        assert tables.frozen[0].any() and tables.frozen[2].any()
        assert not tables.frozen[1].any()

    def test_fleets_of_one_design_share_its_grid(self, sys1_design):
        rng = spawn(5, "shared-grid")
        instances = [sys1_design.instantiate(rng) for _ in range(3)]
        one = ControllerFleet([instances[0].controller])
        two = ControllerFleet([instance.controller for instance in instances[1:]])
        assert one._grid is two._grid is sys1_design.command_grid
        for name in ("levels", "u_applied", "d_u", "b_u", "frozen"):
            assert getattr(one._grid, name) is getattr(two._grid, name)
        # Stepping leaves the rows on the shared grid; each fleet built only
        # its own starting commands' table.
        command = one.step(np.array([20.0]), np.array([18.0]))
        assert one._tables is sys1_design.command_grid
        assert command.tolist() == one._command.tolist()
        assert one.levels is sys1_design.command_grid.levels
        assert two._tables.u_applied.shape == (2, 3)


class TestWriteBack:
    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_steps=st.integers(min_value=1, max_value=150),
        n_writes=st.integers(min_value=0, max_value=6),
        keep_at=st.integers(min_value=0, max_value=150),
        write_dropped=st.booleans(),
    )
    def test_diagnostics_at_any_step(self, sys1_design, size, seed, n_steps, n_writes,
                                     keep_at, write_dropped):
        """Write-backs mid-block and after a keep equal per-step one-row stepping."""
        rng = np.random.default_rng(seed)
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(size)]
        stepped = ControllerFleet(fleet)
        writes = set(rng.integers(1, n_steps + 1, n_writes).tolist()) | {n_steps}
        members = list(range(size))
        for step in range(1, n_steps + 1):
            if step == keep_at and len(members) > 1:
                kept = np.arange(0, len(members), 2)
                dropped = [members[k] for k in range(len(members)) if k % 2]
                if write_dropped:
                    stepped.write_back(np.setdiff1d(np.arange(len(members)), kept))
                stepped.keep(kept)
                members = [members[k] for k in kept.tolist()]
                for index in dropped if write_dropped else ():
                    _assert_same(alone[index], fleet[index])
            targets_w = rng.uniform(5.0, 35.0, len(members))
            # Wide errors saturate and freeze often.
            measured_w = targets_w + rng.normal(0.0, 40.0, len(members))
            expected = [
                alone[index].step(float(t), float(m))
                for index, t, m in zip(members, targets_w, measured_w)
            ]
            # Reading diagnostics settles the one-row counters every step.
            for index in members:
                alone[index].diagnostics()
            assert _settings(stepped.step(targets_w, measured_w)) == expected
            if step in writes:
                stepped.write_back()
                for index in members:
                    _assert_same(alone[index], fleet[index])

    def test_fleet_starts_from_an_off_grid_command(self, sys1_design):
        rng = np.random.default_rng(21)
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(3)]
        fleet = [MatrixController(sys1_design.controller, ActuatorBank(SYS1))
                 for _ in range(3)]
        seeded = []
        for k, pair in enumerate(zip(alone, fleet)):
            u_norm = rng.uniform(0.05, 0.95, 3)
            for controller in pair:
                controller._x_pred = np.full(controller._x_pred.size, 0.01 * k)
                controller._u_applied = u_norm - controller._u_op
            seeded.append(pair[1]._u_applied)
        stepped = ControllerFleet(fleet)
        # Written back unstepped, the rows keep their seeded commands.
        stepped.write_back()
        for controller, u_applied in zip(fleet, seeded):
            assert np.array_equal(controller._u_applied, u_applied)
        targets_w = np.array([12.0, 20.0, 28.0])
        measured_w = np.array([20.0, 20.0, 20.0])
        for _ in range(3):
            expected = [c.step(float(t), float(m)) for c, t, m in
                        zip(alone, targets_w, measured_w)]
            assert _settings(stepped.step(targets_w, measured_w)) == expected
        stepped.write_back()
        grid = stepped._tables.u_applied[: len(stepped._tables.levels)]
        for a, b in zip(alone, fleet):
            _assert_same(a, b)
            # After a step the applied command is a grid command.
            assert (grid == b._u_applied).all(axis=1).any()


class TestResidentFleet:
    def test_state_assigned_between_steps_is_used(self, sys1_design):
        stepped = MatrixController(sys1_design.controller, ActuatorBank(SYS1))
        for _ in range(5):
            stepped.step(20.0, 26.0)
        stepped._z = 3.5
        stepped._u_applied = np.array([0.2, 0.1, 0.4]) - stepped._u_op
        fresh = MatrixController(sys1_design.controller, ActuatorBank(SYS1))
        fresh._x_pred = stepped._x_pred.copy()
        fresh._z = stepped._z
        fresh._u_applied = stepped._u_applied.copy()
        for measured_w in (30.0, 10.0, 21.0):
            assert stepped.step(20.0, measured_w) == fresh.step(20.0, measured_w)
            _assert_same_state(stepped, fresh)

    def test_reset_restarts_from_zero_state(self, sys1_design):
        stepped = MatrixController(sys1_design.controller, ActuatorBank(SYS1))
        for _ in range(5):
            stepped.step(40.0, 5.0)
        assert stepped.diagnostics()["saturation_steps"] > 0
        stepped.reset()
        fresh = MatrixController(sys1_design.controller, ActuatorBank(SYS1))
        assert stepped.diagnostics() == fresh.diagnostics()
        for measured_w in (30.0, 10.0, 21.0):
            assert stepped.step(20.0, measured_w) == fresh.step(20.0, measured_w)
        _assert_same(stepped, fresh)


def _assert_same_state(a, b):
    assert np.array_equal(a._x_pred, b._x_pred)
    assert np.array_equal(a._u_applied, b._u_applied)
    assert a._z == b._z


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
        levels = JointLevels(ActuatorBank(SYS1))
        fleet = DefenseFleet(batched, levels)
        assert _settings(fleet.index, levels) == [d.initial_settings() for d in alone]
        # Blocks of mask targets of uneven length, drawn ahead.
        for block in (1, 7, 13, 19):
            fleet.draw(block)
            for _ in range(block):
                measured_w = rng.uniform(5.0, 35.0, len(self.DEFENSES))
                expected = [d.decide(float(m)) for d, m in zip(alone, measured_w)]
                assert _settings(fleet.decide(measured_w), levels) == expected
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
        levels = JointLevels(ActuatorBank(SYS1))
        fleet = DefenseFleet(batched, levels)
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
            assert _settings(fleet.decide(measured_w), levels) == expected
        fleet.write_back()
        for index in members:
            assert np.array_equal(alone[index].current_target_w,
                                  batched[index].current_target_w, equal_nan=True)
            assert alone[index].diagnostics() == batched[index].diagnostics()
