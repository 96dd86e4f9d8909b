"""Unit tests for the MAYA rule set on fixture snippets."""

import textwrap

from repro.lint import LintEngine, all_rule_ids
from repro.lint.engine import parse_suppressions


def lint(source, path="src/repro/example.py"):
    return LintEngine().lint_source(textwrap.dedent(source), path)


def rule_ids(source, path="src/repro/example.py"):
    return [diag.rule_id for diag in lint(source, path)]


class TestRegistry:
    def test_all_rules_registered(self):
        assert all_rule_ids() == (
            "MAYA001",
            "MAYA002",
            "MAYA003",
            "MAYA031",
            "MAYA032",
            "MAYA033",
            "MAYA050",
        )


class TestDirectRandomness:
    def test_flags_default_rng(self):
        src = """\
        import numpy as np
        __all__ = []
        rng = np.random.default_rng(0)
        """
        assert rule_ids(src) == ["MAYA001"]

    def test_flags_legacy_global_seed(self):
        src = """\
        import numpy
        __all__ = []
        numpy.random.seed(42)
        """
        assert rule_ids(src) == ["MAYA001"]

    def test_flags_stdlib_random_import_and_call(self):
        src = """\
        import random
        __all__ = []
        x = random.random()
        """
        ids = rule_ids(src)
        assert ids == ["MAYA001", "MAYA001"]  # the import and the call

    def test_flags_from_import_alias(self):
        src = """\
        from numpy import random as nr
        __all__ = []
        rng = nr.default_rng(3)
        """
        assert rule_ids(src) == ["MAYA001"]

    def test_flags_directly_imported_constructor(self):
        src = """\
        from numpy.random import default_rng
        __all__ = []
        rng = default_rng(3)
        """
        assert rule_ids(src) == ["MAYA001"]

    def test_annotation_only_is_clean(self):
        src = """\
        import numpy as np
        __all__ = []

        def f(rng: np.random.Generator) -> np.random.Generator:
            return rng
        """
        assert rule_ids(src) == []

    def test_rng_module_is_exempt(self):
        src = """\
        import numpy as np
        __all__ = []
        g = np.random.Generator(np.random.PCG64(7))
        """
        assert rule_ids(src, path="src/repro/machine/rng.py") == []

    def test_local_variable_named_random_is_clean(self):
        src = """\
        __all__ = []

        def f(rng):
            return rng.random()
        """
        assert rule_ids(src) == []


class TestWallClock:
    def test_flags_time_time(self):
        src = """\
        import time
        __all__ = []
        t = time.time()
        """
        assert rule_ids(src) == ["MAYA002"]

    def test_flags_renamed_from_import(self):
        src = """\
        from time import perf_counter as clock
        __all__ = []
        t = clock()
        """
        assert rule_ids(src) == ["MAYA002"]

    def test_flags_datetime_now(self):
        src = """\
        from datetime import datetime
        __all__ = []
        stamp = datetime.now()
        """
        assert rule_ids(src) == ["MAYA002"]

    def test_sanctioned_sites_exempt(self):
        src = """\
        import time
        __all__ = []
        t = time.time()
        """
        assert rule_ids(src, path="src/repro/__main__.py") == []
        assert (
            rule_ids(src, path="src/repro/experiments/sec7e_controller_cost.py") == []
        )

    def test_time_sleep_is_clean(self):
        src = """\
        import time
        __all__ = []
        time.sleep(0)
        """
        assert rule_ids(src) == []


class TestFloatEquality:
    def test_flags_equality_with_float_literal(self):
        assert rule_ids("__all__ = []\nok = x == 0.3\n") == ["MAYA003"]

    def test_flags_inequality_and_negative_literals(self):
        assert rule_ids("__all__ = []\nok = y != -1.5\n") == ["MAYA003"]

    def test_flags_literal_on_left(self):
        assert rule_ids("__all__ = []\nok = 0.0 == z\n") == ["MAYA003"]

    def test_integer_comparison_is_clean(self):
        assert rule_ids("__all__ = []\nok = x == 0\n") == []

    def test_ordering_comparison_is_clean(self):
        assert rule_ids("__all__ = []\nok = x < 0.3\n") == []

    def test_chained_comparison_reported_once(self):
        assert rule_ids("__all__ = []\nok = 0.0 == x == 1.0\n") == ["MAYA003"]


class TestUnsortedEnumeration:
    EXEC_PATH = "src/repro/exec/cache.py"

    def test_flags_unsorted_path_glob(self):
        src = """\
        __all__ = []
        def sweep(root):
            for path in root.glob("*.npz"):
                path.unlink()
        """
        assert rule_ids(src, path=self.EXEC_PATH) == ["MAYA031"]

    def test_flags_os_listdir_and_scandir(self):
        src = """\
        import os
        __all__ = []
        def names(root):
            return [name for name in os.listdir(root)]
        def entries(root):
            return list(os.scandir(root))
        """
        assert rule_ids(src, path=self.EXEC_PATH) == ["MAYA031", "MAYA031"]

    def test_flags_rglob_and_iterdir(self):
        src = """\
        __all__ = []
        def walk(root):
            return list(root.rglob("*.py")) + list(root.iterdir())
        """
        assert rule_ids(src, path=self.EXEC_PATH) == ["MAYA031", "MAYA031"]

    def test_sorted_wrapping_is_clean(self):
        src = """\
        import os
        __all__ = []
        def sweep(root):
            for path in sorted(root.glob("*.npz")):
                path.unlink()
            return sorted(os.listdir(root))
        """
        assert rule_ids(src, path=self.EXEC_PATH) == []

    def test_only_applies_inside_exec_package(self):
        src = """\
        __all__ = []
        def sweep(root):
            return list(root.glob("*.npz"))
        """
        assert rule_ids(src, path="src/repro/experiments/example.py") == []

    def test_suppressible_with_targeted_ignore(self):
        src = """\
        __all__ = []
        def sweep(root):
            return list(root.glob("*.npz"))  # maya: ignore[MAYA031]
        """
        assert rule_ids(src, path=self.EXEC_PATH) == []

    def test_also_applies_inside_telemetry_package(self):
        src = """\
        __all__ = []
        def manifests(root):
            return [path for path in root.glob("*.json")]
        """
        assert rule_ids(src, path="src/repro/telemetry/manifest.py") == ["MAYA031"]

    def test_sorted_telemetry_enumeration_is_clean(self):
        src = """\
        __all__ = []
        def manifests(root):
            return sorted(root.glob("*.json"))
        """
        assert rule_ids(src, path="src/repro/telemetry/manifest.py") == []


class TestTelemetryIsolation:
    SIM_PATH = "src/repro/control/example.py"

    def test_fire_and_forget_call_statement_is_clean(self):
        src = """\
        from .. import telemetry
        __all__ = []
        def step(error):
            telemetry.count("control.steps")
            telemetry.observe("control.error", error, (1.0,))
        """
        assert rule_ids(src, path=self.SIM_PATH) == []

    def test_assignment_from_telemetry_is_flagged(self):
        src = """\
        from .. import telemetry
        __all__ = []
        def step(error):
            rec = telemetry.get_recorder()
            return rec
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA032"]

    def test_telemetry_symbol_as_argument_is_flagged(self):
        src = """\
        from repro.telemetry import count
        __all__ = []
        def step(hook):
            hook(count)
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA032"]

    def test_storing_telemetry_on_self_is_flagged(self):
        src = """\
        from repro import telemetry
        __all__ = []
        class Controller:
            def __init__(self):
                self.sink = telemetry
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA032"]

    def test_return_value_use_is_flagged(self):
        src = """\
        from .. import telemetry
        __all__ = []
        def step(error):
            if telemetry.enabled():
                return 1
            return 0
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA032"]

    def test_directly_imported_symbol_call_statement_is_clean(self):
        src = """\
        from repro.telemetry import count
        __all__ = []
        def clip():
            count("control.fixedpoint.clip_events")
        """
        assert rule_ids(src, path=self.SIM_PATH) == []

    def test_exec_layer_is_exempt(self):
        src = """\
        from .. import telemetry
        __all__ = []
        def run(jobs):
            rec = telemetry.get_recorder()
            return rec.enabled
        """
        assert rule_ids(src, path="src/repro/exec/engine.py") == []

    def test_unrelated_telemetry_name_is_clean(self):
        src = """\
        __all__ = []
        def f(telemetry):
            return telemetry + 1
        """
        assert rule_ids(src, path=self.SIM_PATH) == []

    def test_applies_across_all_sim_packages(self):
        src = """\
        from .. import telemetry
        __all__ = []
        x = telemetry
        """
        for package in ("machine", "control", "defenses", "masks", "core"):
            path = f"src/repro/{package}/example.py"
            assert rule_ids(src, path=path) == ["MAYA032"], package

    def test_suppressible_with_targeted_ignore(self):
        src = """\
        from .. import telemetry
        __all__ = []
        flag = telemetry.enabled()  # maya: ignore[MAYA032]
        """
        assert rule_ids(src, path=self.SIM_PATH) == []


class TestSyntaxErrors:
    def test_unparseable_module_reports_maya000(self):
        diags = lint("def broken(:\n")
        assert [d.rule_id for d in diags] == ["MAYA000"]
        assert diags[0].severity == "error"


class TestSuppression:
    def test_targeted_ignore_suppresses_only_named_rule(self):
        src = """\
        import numpy as np
        __all__ = []
        rng = np.random.default_rng(0)  # maya: ignore[MAYA001]
        """
        assert rule_ids(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = """\
        import numpy as np
        __all__ = []
        rng = np.random.default_rng(0)  # maya: ignore[MAYA003]
        """
        assert rule_ids(src) == ["MAYA001"]

    def test_bare_ignore_suppresses_everything_on_line(self):
        src = """\
        __all__ = []
        ok = x == 0.3  # maya: ignore
        """
        assert rule_ids(src) == []

    def test_ignore_on_other_line_has_no_effect(self):
        src = """\
        __all__ = []
        # maya: ignore[MAYA003]
        ok = x == 0.3
        """
        assert rule_ids(src) == ["MAYA003"]

    def test_multiple_ids_in_one_ignore(self):
        src = """\
        import numpy as np
        __all__ = []
        ok = np.random.default_rng(0).normal() == 0.5  # maya: ignore[MAYA001, MAYA003]
        """
        assert rule_ids(src) == []

    def test_parse_suppressions_shapes(self):
        lines = (
            "x = 1",
            "y = 2  # maya: ignore",
            "z = 3  # maya: ignore[MAYA001,MAYA002]",
        )
        supp = parse_suppressions(lines)
        assert 1 not in supp
        assert supp[2] is None
        assert supp[3] == frozenset({"MAYA001", "MAYA002"})


class TestProfilerIsolation:
    SIM_PATH = "src/repro/control/example.py"

    def test_import_of_profile_module_is_flagged(self):
        src = """\
        from ..telemetry import profile
        __all__ = []
        """
        assert "MAYA033" in rule_ids(src, path=self.SIM_PATH)

    def test_absolute_import_of_profile_module_is_flagged(self):
        src = """\
        import repro.telemetry.profile
        __all__ = []
        """
        assert "MAYA033" in rule_ids(src, path=self.SIM_PATH)

    def test_import_from_profile_module_is_flagged(self):
        src = """\
        from repro.telemetry.profile import span
        __all__ = []
        """
        assert "MAYA033" in rule_ids(src, path=self.SIM_PATH)

    def test_profiler_symbol_from_telemetry_is_flagged(self):
        src = """\
        from repro.telemetry import set_profiler
        __all__ = []
        def install(p):
            set_profiler(p)
        """
        assert "MAYA033" in rule_ids(src, path=self.SIM_PATH)

    def test_even_fire_and_forget_span_call_is_flagged(self):
        # MAYA032 sanctions bare telemetry call statements; MAYA033 does
        # not extend that grace to the profiler.
        src = """\
        from .. import telemetry
        __all__ = []
        def step(error):
            telemetry.profile.span("kernel")
        """
        assert "MAYA033" in rule_ids(src, path=self.SIM_PATH)

    def test_plain_telemetry_calls_stay_clean(self):
        src = """\
        from .. import telemetry
        __all__ = []
        def step(error):
            telemetry.count("control.steps")
        """
        assert rule_ids(src, path=self.SIM_PATH) == []

    def test_engine_layer_is_exempt(self):
        src = """\
        from ..telemetry import profile
        __all__ = []
        def run(job):
            with profile.span("job"):
                return job
        """
        assert rule_ids(src, path="src/repro/exec/example.py") == []


class TestHostState:
    SIM_PATH = "src/repro/machine/power.py"

    def test_flags_host_module_imports(self):
        src = """\
        import os
        import os.path
        import sys as system
        from pathlib import Path
        from io import StringIO
        __all__ = []
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA050"] * 5

    def test_flags_every_listed_module(self):
        for module in ("platform", "locale", "glob", "shutil", "subprocess",
                       "socket", "tempfile"):
            src = f"import {module}\n__all__ = []\n"
            assert rule_ids(src, path=self.SIM_PATH) == ["MAYA050"], module

    def test_flags_open_and_input_calls(self):
        src = """\
        __all__ = []
        def load(name):
            with open(name) as handle:
                return handle.read() + input()
        """
        assert rule_ids(src, path=self.SIM_PATH) == ["MAYA050"] * 2

    def test_numeric_imports_and_methods_are_clean(self):
        src = """\
        import math
        import numpy as np
        from ..telemetry import emit
        __all__ = []
        def f(store):
            return store.open(), np.io, math.pi
        """
        assert rule_ids(src, path=self.SIM_PATH) == []

    def test_applies_to_every_simulation_package_and_the_kernel(self):
        for path in (
            "src/repro/control/controller.py",
            "src/repro/masks/generators.py",
            "src/repro/workloads/phases.py",
            "src/repro/defenses/base.py",
            "src/repro/core/runtime.py",
            "src/repro/exec/batch.py",
        ):
            assert rule_ids("import os\n__all__ = []\n", path=path) == ["MAYA050"], path

    def test_engine_layer_and_drivers_are_exempt(self):
        for path in (
            "src/repro/exec/engine.py",
            "src/repro/exec/jobs.py",
            "src/repro/experiments/fig14_overheads.py",
            "src/repro/telemetry/__init__.py",
        ):
            assert rule_ids("import os\n__all__ = []\n", path=path) == [], path

    def test_suppressible_with_targeted_ignore(self):
        src = "import os  # maya: ignore[MAYA050]\n__all__ = []\n"
        assert rule_ids(src, path=self.SIM_PATH) == []
