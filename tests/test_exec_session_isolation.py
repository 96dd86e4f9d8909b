"""A session's bits do not depend on the sessions its process ran before.

The trace store caches a session under its job's content address, so the
trace must be a function of the job alone.  State that outlives a session
(a memo on a class, a module-level table) would make a session's bits
depend on which platforms and designs the process simulated first, and no
in-process comparison sees that when every run has the same history.
Here a ``maya_gs`` session on Sys2 runs in this process after Sys1 and
Sys3 sessions, and again as the first session of a fresh interpreter; the
two traces must be bit-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.exec import SessionJob, execute_jobs_batched
from repro.machine import SYS1, SYS2, SYS3

from .conftest import TEST_SEED
from .test_golden_traces import trace_digest

REPO_ROOT = Path(__file__).resolve().parents[1]


def maya_job(spec) -> SessionJob:
    return SessionJob(
        spec=spec,
        workload="volrend",
        defense="maya_gs",
        factory_seed=TEST_SEED,
        design_overrides={"sysid_intervals": 400},
        seed=TEST_SEED,
        run_id=("isolation", spec.name),
        duration_s=0.5,
    )


def sys2_digest() -> str:
    """Digest of the Sys2 session, simulated in the calling process."""
    (trace,) = execute_jobs_batched([maya_job(SYS2)])
    return trace_digest(trace)


def test_sys2_session_after_other_platforms_matches_a_fresh_process():
    for spec in (SYS1, SYS3):
        execute_jobs_batched([maya_job(spec)])
    in_process = sys2_digest()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(REPO_ROOT)]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_exec_session_isolation import sys2_digest; "
         "print(sys2_digest())"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
    )
    assert proc.stdout.strip() == in_process
