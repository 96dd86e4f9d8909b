"""The ``python -m repro`` experiment runner and its lazy experiment table.

:data:`repro.experiments.EXPERIMENTS` imports a figure module only when its
key is looked up; the CLI lists and runs experiments through it.  That
every key maps to a module with ``run`` is checked in
``tests/test_experiments_config.py::TestRegistry``.
"""

import json

from repro.__main__ import main
from repro.experiments import EXPERIMENTS

from .test_import_budget import last_output_line

KEYS = sorted(set(EXPERIMENTS) - {"tab02"})


def test_list_prints_every_key_but_tab02_with_its_summary(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == KEYS
    for key, line in zip(KEYS, lines):
        summary = EXPERIMENTS[key].__doc__.strip().splitlines()[0]
        assert line == f"{key:<8} {summary}"


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment 'nope'" in capsys.readouterr().err


#: Imports the table and probes it without looking a key up; prints the
#: figure modules then loaded.
LAZY_TABLE = """
import json
import sys

from repro.experiments import EXPERIMENTS

assert "fig14" in EXPERIMENTS and "nope" not in EXPERIMENTS
assert len(EXPERIMENTS) == len(list(EXPERIMENTS)) == 14
loaded = [name for name in sys.modules if name.startswith("repro.experiments.fig")]
module = EXPERIMENTS["fig14"]
loaded_after = [name for name in sys.modules if name.startswith("repro.experiments.fig")]
print(json.dumps([sorted(loaded), sorted(loaded_after)]))
"""


def test_table_imports_a_figure_module_only_on_lookup():
    before, after = json.loads(last_output_line(LAZY_TABLE))
    assert before == []
    assert after == ["repro.experiments.fig14_overheads"]
