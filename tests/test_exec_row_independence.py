"""Row independence of the lock-step kernel.

``execute_jobs_batched`` advances every row of a fleet through shared
fleet passes: the phase cursor, the power and RAPL steps, the Maya
controller step.  A session's trace must not depend on which other
sessions share its batch.  This property pins that at the kernel level:
for random fleets mixing Maya, random-input and constant-settings
defenses, fixed-duration and run-to-completion rows, per-row caps, tails
and temperature recording, each row of one B-row call ``Trace.equals``
a B=1 call of the same job.  With the golden trace digests pinning the
absolute bits, it is the oracle a one-row kernel can be checked against.
"""

from hypothesis import given, settings, strategies as st

from repro.exec import SessionJob, execute_jobs_batched

from .conftest import TEST_SEED

DEFENSES = ("maya_gs", "maya_constant", "random_inputs", "baseline", "noisy_baseline")


@st.composite
def kernel_rows(draw):
    """The per-row parameters of one session in a lock-step fleet."""
    defense = draw(st.sampled_from(DEFENSES))
    record_temperature = draw(st.booleans())
    if draw(st.booleans()):
        # streamcluster oscillates from its first tick; a video leaves its
        # flat demux phase for oscillating GOPs after 1 s of work; a page
        # load walks through flat phases.
        return dict(
            workload=draw(st.sampled_from(["streamcluster", "video_sunflower", "page_google"])),
            defense=defense,
            duration_s=draw(st.sampled_from([0.02, 0.34, 1.5])),
            record_temperature=record_temperature,
        )
    # Run to completion: a short loop, capped before or after it ends.
    return dict(
        workload=draw(st.sampled_from(["loop_imul", "loop_xor"])),
        workload_kwargs={"duration_s": draw(st.sampled_from([0.05, 0.2]))},
        defense=defense,
        duration_s=None,
        max_duration_s=draw(st.sampled_from([0.1, 0.3, 2.0])),
        tail_s=draw(st.sampled_from([0.0, 0.04, 0.1])),
        record_temperature=record_temperature,
    )


class TestKernelRows:
    @given(rows=st.lists(kernel_rows(), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_each_row_equals_a_one_row_call(self, sys1_factory, rows):
        jobs = [
            SessionJob.for_factory(
                sys1_factory, seed=TEST_SEED, run_id=("row-independence", index), **row
            )
            for index, row in enumerate(rows)
        ]
        fleet = execute_jobs_batched(jobs, sys1_factory)
        for job, trace in zip(jobs, fleet):
            [alone] = execute_jobs_batched([job], sys1_factory)
            assert trace.equals(alone)
