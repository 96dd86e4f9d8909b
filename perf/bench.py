"""The benchmark's parent process: timed children, a traced run, golden
checks, a report.

Every child is a fresh ``python -m perf.child`` process whose environment
has every ambient ``REPRO_*`` variable removed, so the benchmark measures
the default user path.  Each workload gets :data:`CHILDREN` timed children
that share its ``--seconds``; each sets up once and then repeats the figure
call, with reference slices between the calls.  Children of the chosen
workloads are taken round-robin, which spreads slow host periods over all
of them.  A separate traced child per workload then gives the per-layer
table.  The last line printed is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import reference, spans
from .workloads import WORKLOADS, design_seed

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
RESULTS = PERF / "results"
GOLDEN = PERF / "golden.json"

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("wall_norm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Timed children per workload and run; each sets up once, so set-up is
#: measured this many times.
CHILDREN = 3
#: Seconds a child is expected to spend starting and setting up, outside
#: its call budget.
SETUP_ALLOWANCE_S = 1.5
CHILD_TIMEOUT_S = 150.0
#: Multithreaded BLAS on a small shared host swings 10-20x with any other
#: load, so children run every BLAS and OpenMP pool on one thread.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(extra: dict, base=None) -> dict:
    """A child's environment: ``base`` without any ``REPRO_*`` variable.

    ``base`` defaults to this process's environment; :data:`ONE_THREAD`
    and ``extra`` are added on top, and ``src`` goes first on
    ``PYTHONPATH``.
    """
    base = os.environ if base is None else base
    env = {key: value for key, value in base.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), base.get("PYTHONPATH", "")) if part
    )
    env.update(ONE_THREAD)
    env.update(extra)
    return env


def run_child(workload, seed: int, work: Path, budget_s=None, traced: bool = False,
              store=None) -> dict:
    """One child in a fresh process; ``store`` is the trace store to use.

    ``budget_s`` of ``None`` makes one call without reference slices, and
    0 one call with them.
    """
    work.mkdir(parents=True, exist_ok=True)
    spec = {
        "workload": workload.name,
        "seed": design_seed(workload, seed),
        "budget_s": budget_s,
        "traced": traced,
        "out": str(work / "out.json"),
        "store": None if store is None else str(store),
        "profile_dir": str(work / "profile") if traced else None,
        "spans": str(work / "spans.jsonl") if traced else None,
    }
    extra = {}
    if store is not None:
        extra.update(REPRO_CACHE="1", REPRO_CACHE_DIR=str(store))
    if traced:
        extra.update(REPRO_PROFILE="1", REPRO_PROFILE_DIR=spec["profile_dir"])
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perf.child", json.dumps(spec)],
            cwd=ROOT, env=child_env(extra), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        out = {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    else:
        try:
            out = json.loads((work / "out.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            out = {"ok": False, "error": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    out["elapsed_s"] = time.perf_counter() - start
    return out


def summarize(values) -> dict:
    """Median, first and third quartile and count of ``values``."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    p25, median, p75 = statistics.quantiles(values, n=4)
    return {"median": median, "p25": p25, "p75": p75, "n": len(values)}


def check(attempts, golden: dict) -> "list[tuple[int, int]]":
    """Per child, how many figure calls it attempted and how many failed.

    A call fails when it reported an invalid number or its figure digest
    differs from the golden one; for a seed without a golden entry, from
    the first call of the first child that ran.  A child that raised counts
    as one failed call.  A traced child also fails when its per-session
    trace digests differ from golden ones.
    """
    expected = golden.get("result")
    if expected is None:
        expected = next((a["calls"][0]["digest"] for a in attempts if a["ok"]), None)
    tally = []
    for attempt in attempts:
        if not attempt["ok"]:
            tally.append((1, 1))
            continue
        calls = attempt["calls"]
        failed = sum(not call["valid"] or call["digest"] != expected for call in calls)
        if "sessions" in attempt and "sessions" in golden:
            failed = len(calls) if attempt["sessions"] != golden["sessions"] else failed
        tally.append((len(calls), failed))
    return tally


def measure(names, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run every child of the benchmark; return the raw results per workload."""
    state = {
        name: {"prefill": None, "timed": [], "traced": None, "spent": 0.0, "store": None}
        for name in names
    }
    for name in names:
        workload, record = WORKLOADS[name], state[name]
        if workload.store is not None:
            record["store"] = work / name / "store"
        if workload.store == "warm":
            record["prefill"] = run_child(workload, seed, work / name / "prefill",
                                          store=record["store"])
            record["spent"] = record["prefill"]["elapsed_s"]

    for left in range(CHILDREN, 0, -1):
        for name in names:
            record = state[name]
            if record["prefill"] is not None and not record["prefill"]["ok"]:
                continue
            budget = max(0.0, (seconds - record["spent"]) / left - SETUP_ALLOWANCE_S)
            child_dir = work / name / f"child-{left}"
            attempt = run_child(WORKLOADS[name], seed, child_dir, budget_s=budget,
                                store=record["store"])
            shutil.rmtree(child_dir, ignore_errors=True)
            record["timed"].append(attempt)
            record["spent"] += attempt["elapsed_s"]

    if trace:
        for name in names:
            record = state[name]
            traced_dir = work / name / "traced"
            record["traced"] = run_child(WORKLOADS[name], seed, traced_dir, budget_s=0.0,
                                         traced=True, store=record["store"])
            if record["traced"]["ok"]:
                shutil.copy(traced_dir / "spans.jsonl", RESULTS / f"{name}.spans.jsonl")
    return state


def report_workload(record: dict, golden: dict) -> dict:
    """End-to-end metrics, failures and the per-layer table of one workload.

    Times are scaled to reference speed by the host speed that the reference
    slices measured: ``wall_norm_s`` is the calls' mean host seconds times
    the speed over all timed children, and ``setup_s`` the median over
    children of set-up host seconds times that child's speed.
    """
    attempts = [a for a in (record["prefill"], *record["timed"], record["traced"]) if a]
    tally = check(attempts, golden)
    attempted, failed = sum(n for n, _ in tally), sum(f for _, f in tally)
    timed_ok = [a for a in record["timed"] if a["ok"]]
    calls = [call["wall_s"] for a in timed_ok for call in a["calls"]]
    setups = [a["setup_s"] for a in timed_ok]
    rss = [a["peak_rss_mb"] for a in timed_ok]
    speed = reference.speed(sum(a["ref_slices"] for a in timed_ok),
                            sum(a["ref_s"] for a in timed_ok)) if timed_ok else None
    prefill = record["prefill"]
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": sorted({a["error"] for a in attempts if not a["ok"]}),
        "digest": next((a["calls"][0]["digest"] for a in attempts if a["ok"]), None),
        "golden": "result" in golden,
        "prefill_s": prefill["calls"][0]["wall_s"] if prefill and prefill["ok"] else None,
        "host_speed": speed,
        "end_to_end": {
            "wall_norm_s": statistics.fmean(calls) * speed if timed_ok else None,
            "setup_s": statistics.median(
                a["setup_s"] * reference.speed(a["ref_slices"], a["ref_s"]) for a in timed_ok
            ) if timed_ok else None,
            "peak_rss_mb": statistics.median(rss) if timed_ok else None,
        },
        "samples": {
            name: summarize(values) if values else None
            for name, values in (("wall_s", calls), ("setup_s", setups), ("peak_rss_mb", rss))
        },
        "children": [
            {"ok": a["ok"], **{key: a.get(key) for key in
                               ("setup_s", "peak_rss_mb", "ref_s", "ref_slices", "elapsed_s")},
             "calls_s": [call["wall_s"] for call in a.get("calls", [])]}
            for a in record["timed"]
        ],
    }
    traced = record["traced"]
    if traced is not None and traced["ok"]:
        layers = dict(traced["layers"])
        traced_s = traced["calls"][0]["wall_s"] * reference.speed(traced["ref_slices"],
                                                                  traced["ref_s"])
        untraced_s = out["end_to_end"]["wall_norm_s"]
        layers["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0
        out["layers"] = layers
        out["layer_table"] = spans.layer_table(layers)
        out["sessions"] = traced["sessions"]
    return out


def _number(value) -> float:
    """A metric value for the one-line result: ``not_measured`` reads 0."""
    return 0.0 if value == spans.NOT_MEASURED else value


def result_line(reports: dict, trace: bool) -> dict:
    """The contract's one-line result over every workload run."""
    units = (
        {name: unit for name, unit, *_ in spans.LAYER_METRICS} if trace
        else {name: unit for name, unit, _ in END_TO_END}
    )
    metrics = {}
    correct = True
    for workload, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{workload}/"
        if trace:
            values = report.get("layers")
            if values is None:
                correct = False
                continue
        else:
            values = {name: value for name, value in report["end_to_end"].items()
                      if value is not None}
        for name, unit in units.items():
            if name in values:
                metrics[prefix + name] = {"value": _number(values[name]), "unit": unit}
        correct = correct and report["failed"] == 0
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


def _fmt(value) -> str:
    if value == spans.NOT_MEASURED or isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_report(reports: dict) -> None:
    for workload, report in reports.items():
        print(f"== {workload}: {report['attempted']} calls attempted, {report['failed']} failed "
              f"(failed_frac {report['failed_frac']:.3g}), golden "
              f"{'checked' if report['golden'] else 'absent: calls must agree'}")
        for error in report["errors"]:
            print("   error: " + error.strip().splitlines()[-1])
        for name, unit, _ in END_TO_END:
            value = report["end_to_end"][name]
            if value is not None:
                print(f"   {name:<14}{value:>10.4g}  {unit}")
        if report["host_speed"] is not None:
            print(f"   (at reference speed; the host ran at {report['host_speed']:.3f} of it. "
                  f"setup_s, peak_rss_mb: median over children)")
        print(f"   {'samples':<14}{'median':>10}{'p25':>10}{'p75':>10}{'n':>4}  unit")
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            summary = report["samples"][name]
            if summary:
                print(f"   {name:<14}{summary['median']:>10.4g}{summary['p25']:>10.4g}"
                      f"{summary['p75']:>10.4g}{summary['n']:>4}  {unit}")
        if report["prefill_s"] is not None:
            print(f"   prefill_s {report['prefill_s']:.4g} s (store fill, not set-up)")
        layers = report.get("layers")
        if not layers:
            continue
        print(f"   {'layer metric':<36}{'value':>12}{'share':>8}  unit")
        for name, unit, _, _ in spans.LAYER_METRICS:
            share = ""
            if name.endswith(".self_s"):
                share = spans.share(layers, name[:-len(".self_s")])
                share = share if isinstance(share, str) else f"{share:.1%}"
            indent = "  " if name.startswith(("exec.kernel.", "exec.fleet.")) else ""
            print(f"   {indent + name:<36}{_fmt(layers[name]):>12}{share:>8}  {unit}")
        print("   (exec.kernel.* and exec.fleet.build break exec.lockstep down)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="host seconds of timed children per workload (default 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one traced child per workload and print "
                             "per-layer metrics on the last line (default 1)")
    parser.add_argument("--update-golden", action="store_true",
                        help="pin this seed's digests in perf/golden.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    names = args.workload or list(WORKLOADS)
    golden_all = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    keys = {name: str(design_seed(WORKLOADS[name], args.seed)) for name in names}
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        state = measure(names, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reports = {
        name: report_workload(
            state[name], {} if args.update_golden else golden_all.get(keys[name], {}).get(name, {})
        )
        for name in names
    }
    print_report(reports)
    line = result_line(reports, bool(args.trace))
    (RESULTS / "latest.json").write_text(json.dumps({
        "schema": "perf.results.v2",
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "reference": {"slice_s": reference.SLICE_S, "share": reference.SHARE},
        "layer_targets": {name: moves for name, _, _, moves in spans.LAYER_METRICS},
        "workloads": reports,
        "result": line,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.update_golden and line["failed"] == 0:
        for name, report in reports.items():
            golden_all.setdefault(keys[name], {})[name] = {
                "result": report["digest"],
                **({"sessions": report["sessions"]} if "sessions" in report else {}),
            }
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

    if all(report["digest"] is None for report in reports.values()):
        print("perf: every child failed", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1
