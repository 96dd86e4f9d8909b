"""Tests for repro.exec.jobs (declarative specs + content addressing)."""

import hashlib
import json
from dataclasses import asdict, fields

import pytest

from repro.defenses.designs import DefenseFactory
from repro.exec import SessionJob, code_salt
from repro.machine import SYS1, SYS2


#: One changed value per field of :class:`SessionJob`.
PERTURBATIONS = {
    "spec": SYS2,
    "workload": "water_nsquared",
    "defense": "noisy_baseline",
    "workload_kwargs": {"duration_s": 2.0},
    "factory_seed": 5,
    "design_overrides": {"sysid_intervals": 400},
    "seed": 12,
    "run_id": ("test", "baseline", "volrend", 1),
    "duration_s": 1.0,
    "interval_s": 0.010,
    "tick_s": 0.002,
    "max_duration_s": 300.0,
    "tail_s": 1.0,
    "record_temperature": True,
    "workload_jitter": 0.05,
}


def tiny_job(**overrides):
    params = dict(
        spec=SYS1,
        workload="volrend",
        defense="baseline",
        seed=11,
        run_id=("test", "baseline", "volrend", 0),
        duration_s=0.5,
    )
    params.update(overrides)
    return SessionJob(**params)


class TestNormalization:
    def test_kwargs_dict_becomes_sorted_pairs(self):
        job = tiny_job(workload_kwargs={"b": 2, "a": 1})
        assert job.workload_kwargs == (("a", 1), ("b", 2))

    def test_pairs_are_sorted_regardless_of_input_order(self):
        a = tiny_job(workload_kwargs=(("b", 2), ("a", 1)))
        b = tiny_job(workload_kwargs=(("a", 1), ("b", 2)))
        assert a == b

    def test_job_is_hashable(self):
        assert len({tiny_job(), tiny_job()}) == 1


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"interval_s": 0.0},
        {"interval_s": -0.02},
        {"tick_s": 0.0},
        {"interval_s": 0.0005, "tick_s": 0.001},
        {"duration_s": 0.01},
        {"duration_s": float("nan")},
        {"duration_s": None, "max_duration_s": 0.01},
        {"tail_s": -1.0},
    ], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
    def test_bad_grid_is_rejected_at_construction(self, overrides):
        with pytest.raises(ValueError):
            tiny_job(**overrides)

    def test_boundary_values_are_accepted(self):
        job = tiny_job(duration_s=0.02, max_duration_s=0.02, tail_s=0.0,
                       interval_s=0.02, tick_s=0.02)
        assert job.duration_s == job.interval_s

    @pytest.mark.parametrize("field, name", [
        ("defense", "maya_nope"),
        ("workload", "nope_app"),
    ])
    def test_unknown_name_is_rejected_at_construction(self, field, name):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            tiny_job(**{field: name})

    def test_every_experiment_name_is_accepted(self):
        """The Table V designs, Maya under every mask family, every
        experiment's defenses and every registered workload construct."""
        import importlib
        import pkgutil

        from repro import experiments
        from repro.defenses.designs import DESIGN_NAMES, maya_design_name
        from repro.masks import MASK_FAMILIES
        from repro.workloads import all_workload_names

        defenses = set(DESIGN_NAMES) | {maya_design_name(f) for f in MASK_FAMILIES}
        for module in pkgutil.iter_modules(experiments.__path__):
            figure = importlib.import_module(f"repro.experiments.{module.name}")
            defenses |= set(getattr(figure, "DEFENSES", ()))
        for defense in sorted(defenses):
            assert tiny_job(defense=defense).defense == defense
        for workload in all_workload_names():
            assert tiny_job(workload=workload).workload == workload


class TestContentAddress:
    def test_key_is_stable(self):
        assert tiny_job().key() == tiny_job().key()

    def test_key_changes_with_any_field(self):
        """Every field of the job is part of its content address: two jobs
        that differ in any one field never share a trace-store entry."""
        # A new field must get a perturbation here before it can pass.
        assert set(PERTURBATIONS) == {f.name for f in fields(SessionJob)}
        base = tiny_job()
        keys = {}
        for name, value in PERTURBATIONS.items():
            variant = tiny_job(**{name: value})
            assert getattr(variant, name) != getattr(base, name), name
            keys[name] = variant.key()
        assert base.key() not in keys.values()
        assert len(set(keys.values())) == len(PERTURBATIONS)

    def test_key_is_the_asdict_payload_digest(self):
        """``describe`` builds the payload field by field; every key is the
        digest of the ``dataclasses.asdict`` payload it replaced."""

        def asdict_key(job):
            payload = asdict(job)
            payload["spec"] = asdict(job.spec)
            payload["run_id"] = repr(job.run_id)
            payload["workload_kwargs"] = [list(pair) for pair in job.workload_kwargs]
            payload["design_overrides"] = [list(pair) for pair in job.design_overrides]
            digest = hashlib.sha256()
            digest.update(code_salt().encode())
            digest.update(b"\x1f")
            digest.update(json.dumps(payload, sort_keys=True, default=repr).encode())
            return digest.hexdigest()

        jobs = [tiny_job()] + [tiny_job(**{name: value}) for name, value in PERTURBATIONS.items()]
        for job in jobs:
            assert job.key() == asdict_key(job)

    def test_code_salt_is_a_stable_digest(self):
        assert len(code_salt()) == 64
        assert code_salt() == code_salt.__wrapped__()  # cached == recomputed

    def test_describe_is_json_serializable(self):
        payload = json.dumps(tiny_job().describe(), sort_keys=True)
        assert "volrend" in payload


class TestFactorySnapshot:
    def test_for_factory_snapshots_declarative_fields(self):
        factory = DefenseFactory(
            SYS1, seed=7, design_overrides={"sysid_intervals": 400}
        )
        job = SessionJob.for_factory(
            factory, workload="volrend", defense="baseline", duration_s=0.5
        )
        assert job.spec == SYS1
        assert job.factory_seed == 7
        assert job.design_overrides == (("sysid_intervals", 400),)
        assert job.matches_factory(factory)

    def test_matches_factory_rejects_mismatches(self):
        factory = DefenseFactory(SYS1, seed=7)
        job = SessionJob.for_factory(
            factory, workload="volrend", defense="baseline"
        )
        assert not job.matches_factory(DefenseFactory(SYS1, seed=8))
        assert not job.matches_factory(DefenseFactory(SYS2, seed=7))
        assert not job.matches_factory(
            DefenseFactory(SYS1, seed=7, design_overrides={"sysid_intervals": 1})
        )


class TestExecution:
    def test_execute_matches_with_and_without_factory(self, sys1_factory):
        job = SessionJob.for_factory(
            sys1_factory,
            workload="volrend",
            defense="baseline",
            seed=11,
            run_id=("exec-test", 0),
            duration_s=0.5,
        )
        with_factory = job.execute(factory=sys1_factory)
        rebuilt = job.execute()  # worker path: factory from job fields
        assert with_factory.equals(rebuilt)
        assert with_factory.workload == "volrend"
        assert with_factory.duration_s == pytest.approx(0.5)

    def test_workload_kwargs_reach_the_program(self, sys1_factory):
        job = SessionJob.for_factory(
            sys1_factory,
            workload="loop_imul",
            workload_kwargs={"duration_s": 1.0},
            defense="baseline",
            seed=11,
            run_id=("exec-test", 1),
            duration_s=0.5,
        )
        trace = job.execute(factory=sys1_factory)
        assert trace.workload == "loop_imul"
