"""One benchmark child: set-up, then figure calls, in a fresh process.

The parent runs ``python -m perf.child SPEC`` with a scrubbed environment,
where SPEC is a JSON object with the keys ``workload``, ``seed`` (of the
design flow), ``budget_s``, ``traced``, ``out`` (the result file),
``store``, ``profile_dir`` and ``spans`` (paths, or ``null`` when unused).
The result is one JSON object written to ``out``.

With ``budget_s`` null the child makes one figure call.  Otherwise it keeps
calling while another call, with its reference slices, is expected to end
no more than half its length past ``budget_s`` seconds after set-up (at
least one call).  After each call it runs reference slices until they add
up to ``reference.SHARE`` of its call time, so the parent can tell how fast
the host ran over the same seconds as the calls.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _dir_mb(path: Path) -> float:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file()) / 2**20


def sample(spec: dict) -> dict:
    """Set up, make the figure calls, and report times and digests."""
    from perf import reference, spans, workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    figure = importlib.import_module(f"repro.experiments.{workload.figure}")
    from repro.experiments.common import make_factory
    from repro.experiments.config import get_scale
    from repro.machine import SYS1

    tracer = spans.Tracer() if spec["traced"] else None
    if tracer is not None:
        _, missing = spans.install(tracer)
    factory = make_factory(SYS1, get_scale(workloads.SCALE), seed=seed)
    for design in workloads.DEFENSES:
        factory.create(design)
    setup_s = time.perf_counter() - T0
    scale = dataclasses.replace(get_scale(workloads.SCALE), **workload.scale)

    budget_s = spec["budget_s"]
    calls, ref_s, slices = [], 0.0, 0
    loop_start = time.perf_counter()
    while True:
        store = spec["store"]
        if workload.store == "cold":
            # Every call of a cold workload starts from an empty store.
            store = str(Path(spec["store"]) / f"call-{len(calls)}")
            os.environ["REPRO_CACHE_DIR"] = store
        if tracer is not None:
            span = tracer.open(spans.FIGURE_SPAN)
        start = time.perf_counter()
        result = figure.run(
            scale, seed=workloads.FIGURE_SEED, spec=SYS1, factory=factory,
            defenses=workloads.DEFENSES, **workload.kwargs,
        )
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        payload = workloads.result_payload(workload.figure, result)
        calls.append({
            "wall_s": wall_s,
            "digest": workloads.payload_digest(payload),
            "valid": workloads.payload_valid(payload),
        })
        if tracer is not None:
            store_mb = _dir_mb(Path(store)) if store else 0.0
        if workload.store == "cold":
            shutil.rmtree(store, ignore_errors=True)
        if budget_s is None:
            break
        call_s = sum(call["wall_s"] for call in calls)
        while ref_s < reference.SHARE * call_s:
            ref_s += reference.run_slice()
            slices += 1
        now = time.perf_counter()
        # Stop unless another call like this one ends less than half its
        # length past the budget.
        if now - start > 2 * (loop_start + budget_s - now):
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
        "ref_s": ref_s,
        "ref_slices": slices,
    }
    if tracer is not None:
        profile = Path(spec["profile_dir"]) / "profile.jsonl"
        if profile.exists():
            records = spans.read_profile(profile)
        else:
            # No engine span ran, or the program has no profiler any more.
            records = [] if importlib.util.find_spec("repro.telemetry.profile") else None
        out["layers"] = spans.layer_metrics(tracer, missing, records, store_mb)
        out["sessions"] = [spans.trace_digest(trace) for trace in tracer.sessions]
        tracer.write(Path(spec["spans"]))
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    try:
        out = {"ok": True, **sample(spec)}
    except Exception:  # reported to the parent, which counts the child failed
        out = {"ok": False, "error": traceback.format_exc()}
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
