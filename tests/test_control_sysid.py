"""Tests for repro.control.sysid (Section V-A identification)."""

import numpy as np
import pytest

from repro.control import identify_plant, run_excitation, training_programs
from repro.control.sysid import ExcitationRecord
from repro.machine import (
    SYS1,
    JointLevels,
    SYS2,
    SYS3,
    RaplSensor,
    SimulatedMachine,
    batch_window_power,
    draw_noise,
    measure_windows,
    spawn,
)
from repro.workloads.phases import Phase, PhaseProgram


def stepped_excitation(spec, workload, seed, n_intervals, interval_s=0.020, hold_range=(1, 4)):
    """The excitation stepped one interval at a time: the oracle of run_excitation."""
    machine = SimulatedMachine(spec, workload, seed=seed, run_id=("sysid", workload.name))
    bank = machine.bank
    sensor = RaplSensor(spec, spawn(seed, "sysid-sensor", spec.name, workload.name))
    rng = spawn(seed, "sysid-excitation", spec.name, workload.name)
    ticks = int(round(interval_s / machine.tick_s))
    power_noise_w, counter_noise_w = draw_noise(
        [machine.power_model], [sensor], n_intervals, ticks
    )
    levels = JointLevels(bank)
    activity = np.empty((1, ticks))
    core_fraction = np.empty((1, ticks))
    u_rows = np.empty((n_intervals, 3))
    y_rows = np.empty(n_intervals)
    settings = bank.random_settings(rng)
    hold_left = 0
    resets = 0
    for t in range(n_intervals):
        if hold_left == 0:
            settings = bank.random_settings(rng)
            index = np.array([levels.index(settings)])
            hold_left = int(rng.integers(hold_range[0], hold_range[1] + 1))
        hold_left -= 1
        machine.activity_profile(ticks, settings, activity[0], core_fraction[0])
        power_w = batch_window_power(
            machine.power_model, activity, core_fraction, levels, index,
            power_noise_w[:, t * ticks:(t + 1) * ticks],
        )
        u_rows[t] = bank.normalize(settings)
        y_rows[t] = measure_windows(power_w, machine.tick_s, counter_noise_w[:, t])[0]
        if machine.completed:
            machine.reset()
            resets += 1
    return ExcitationRecord(workload.name, u_rows, y_rows / spec.tdp_w), resets


def stepped_fit_r2(plant, records, na=4, nb=3):
    """fit_r2 as a per-sample loop over ArxModel.predict."""
    deviation_records = [
        (record.y_norm - plant.y_op, record.u_norm - plant.u_op) for record in records
    ]
    sse = 0.0
    sst = 0.0
    for y_dev, u_dev in deviation_records:
        for t in range(max(na, nb - 1), y_dev.size):
            pred = plant.arx.predict(
                y_dev[t - na:t][::-1], np.stack([u_dev[t - j] for j in range(nb)])
            )
            sse += (y_dev[t] - pred) ** 2
            sst += y_dev[t] ** 2
    return 1.0 - sse / max(sst, 1e-12)


#: A training app that completes a few times within a short record.
SHORT_PROGRAM = PhaseProgram(
    name="short_train",
    family="training",
    phases=(
        Phase("load", 0.07, 0.35, 0.30, memory_intensity=0.6),
        Phase("work", 0.25, 0.70, 1.00, memory_intensity=0.3,
              osc_amplitude=0.2, osc_period_s=0.05),
    ),
)


class TestTrainingPrograms:
    def test_four_training_apps(self):
        names = [p.name for p in training_programs()]
        assert names == ["swaptions", "ferret", "barnes", "raytrace_train"]

    def test_distinct_from_attack_targets(self):
        from repro.workloads import PARSEC_APPS

        for program in training_programs():
            assert program.name not in PARSEC_APPS


class TestExcitation:
    def test_record_shapes(self):
        record = run_excitation(SYS1, training_programs()[0], seed=9, n_intervals=120)
        assert record.u_norm.shape == (120, 3)
        assert record.y_norm.shape == (120,)

    def test_empty_record(self):
        record = run_excitation(SYS1, training_programs()[0], seed=9, n_intervals=0)
        assert record.u_norm.shape == (0, 3)
        assert record.y_norm.shape == (0,)

    def test_inputs_normalized(self):
        record = run_excitation(SYS1, training_programs()[0], seed=9, n_intervals=120)
        assert record.u_norm.min() >= 0.0
        assert record.u_norm.max() <= 1.0

    def test_excitation_explores_input_space(self):
        record = run_excitation(SYS1, training_programs()[0], seed=9, n_intervals=300)
        for column in range(3):
            assert record.u_norm[:, column].std() > 0.2

    def test_outputs_are_tdp_normalized(self):
        record = run_excitation(SYS1, training_programs()[0], seed=9, n_intervals=120)
        assert 0.0 < record.y_norm.mean() < 1.0


class TestWholeRecordExcitation:
    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3], ids=lambda spec: spec.name)
    @pytest.mark.parametrize("seed,n_intervals", [(0, 100), (3, 400), (7, 600)])
    def test_equals_stepped_run(self, spec, seed, n_intervals):
        for workload in training_programs():
            expected, _ = stepped_excitation(spec, workload, seed, n_intervals)
            record = run_excitation(spec, workload, seed, n_intervals)
            assert record.workload == expected.workload
            assert np.array_equal(record.u_norm, expected.u_norm)
            assert np.array_equal(record.y_norm, expected.y_norm)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_restarts_a_completed_app_as_the_stepped_run(self, seed):
        expected, resets = stepped_excitation(SYS1, SHORT_PROGRAM, seed, 240)
        assert resets >= 2
        record = run_excitation(SYS1, SHORT_PROGRAM, seed, 240)
        assert np.array_equal(record.u_norm, expected.u_norm)
        assert np.array_equal(record.y_norm, expected.y_norm)

    def test_fit_r2_equals_stepped_loop(self):
        plant = identify_plant(SYS2, seed=3, n_intervals=200)
        records = [
            run_excitation(SYS2, workload, 3, 200) for workload in training_programs()
        ]
        assert plant.fit_r2 == pytest.approx(stepped_fit_r2(plant, records), rel=0, abs=1e-12)


class TestIdentifiedPlant:
    @pytest.fixture(scope="class")
    def plant(self):
        return identify_plant(SYS1, seed=9, n_intervals=300)

    def test_fit_quality(self, plant):
        # The ARX model must explain the excitation data well.
        assert plant.fit_r2 > 0.8

    def test_dc_gain_signs(self, plant):
        signs = plant.input_power_signs()
        # DVFS and balloon raise power; idle injection lowers it.
        assert signs[0] > 0
        assert signs[1] < 0
        assert signs[2] > 0

    def test_statespace_dimension(self, plant):
        # na=4, nb=3, 3 inputs -> 4 + 2*3 = 10 plant states.
        assert plant.statespace().n_states == 10

    def test_plant_model_stable(self, plant):
        assert plant.statespace().is_stable()

    def test_power_normalization_roundtrip(self, plant):
        power = 17.5
        assert plant.denormalize_power(plant.normalize_power(power)) == pytest.approx(power)

    def test_interval_recorded(self, plant):
        assert plant.interval_s == pytest.approx(0.020)
