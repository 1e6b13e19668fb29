#!/usr/bin/env python3
"""smap benchmark: PPO training and greedy-eval throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dodge-sparse-train --seed 0 --seconds 20 --trace 0

One process, one closed loop, no extra threads or processes. ``--trace 0``
prints the end-to-end metrics of BENCHMARK.json; ``--trace 1`` the per-layer
metrics, from a run whose odd units carry spans. ``--quick`` shrinks every
size so a run takes seconds. The last line of standard output is the result
object; the line before it is a JSON report with the environment stamp,
per-agent and per-phase detail and the checks. Exit status: 0 correct,
1 a correctness check failed, 2 the program or arguments are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Import smap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "smap" / "__init__.py").is_file():
        _fail(f"no smap package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import smap
    if Path(smap.__file__).resolve().parent != (src / "smap").resolve():
        _fail(f"imported smap from {smap.__file__}, not from {src}")


def _blas_stamp(np) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    stamp = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                stamp["threads"] = fn()
                return stamp
    return stamp


def _git_commit() -> str | None:
    """HEAD commit read from .git files (the benchmark starts no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(np, digest: str) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_stamp(np), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "git_commit": _git_commit(),
            "program_sha256": digest}


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def end_to_end(units, setups, peak_rss_mb: float) -> dict:
    return {"setup_s": statistics.median(setups),
            "iter_s": statistics.median(s for u in units for s in u.iter_seconds),
            "peak_rss_mb": peak_rss_mb}


def eval_rates(units, check_events) -> dict:
    """Greedy env steps per second by agent: median over the untraced loop's
    evaluate_policy calls, or over the check pass's for agents the loop skips."""
    loop = [e for u in units if not u.traced for e in u.evals]
    rates = {}
    for agent in sorted({e.info["agent"] for e in check_events if e.phase == "evaluate_policy"}):
        for source, events in (("loop", loop), ("check", check_events)):
            mine = [e.work / e.seconds for e in events
                    if e.phase == "evaluate_policy" and e.info["agent"] == agent]
            if mine:
                rates[agent] = (statistics.median(mine), source)
                break
    return rates


def phase_detail(units, rates) -> dict:
    """Per-phase and per-agent rates of the untraced units."""
    plain = [u for u in units if not u.traced]
    detail = {"iter_seconds": [s for u in plain for s in u.iter_seconds]}
    pairs = [p for u in plain for p in u.iters]
    if pairs:
        detail["rollout_steps_per_s"] = statistics.median(r.work / r.seconds for r, _ in pairs)
        detail["update_samples_per_s"] = statistics.median(u.work / u.seconds for _, u in pairs)
    for agent, (rate, source) in rates.items():
        detail[f"eval_steps_per_s.{agent}"] = rate
        detail[f"eval_steps_per_s.{agent}.source"] = source
    return detail


def per_layer(tracer, units, check, rates, ops) -> tuple[dict, dict]:
    import spans
    values, sources = spans.layer_metrics(tracer.spans)
    for agent, (rate, source) in rates.items():
        values[f"ppo.eval_steps_per_s.{agent}"] = rate
        sources[f"ppo.eval_steps_per_s.{agent}"] = source
    values["envs.levels_generated"] = units[0].exact["levels_generated"]
    values["ppo.initial_ratio_absdev"] = check["ratio_absdev"]
    for agent in ("sparse_masked", "attention"):
        values[f"autodiff.tape_entries.{agent}"] = check["exact"][agent].get("tape_entries")
        values[f"autodiff.tape_matmuls.{agent}"] = check["exact"][agent].get("tape_matmuls")
    plain = [s for u in units if not u.traced for s in u.iter_seconds]
    traced = [s for u in units if u.traced for s in u.iter_seconds]
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    for case, r in ops.items():
        values[f"autodiff.{case}.fwd_us"] = r["fwd_us"]
        values[f"autodiff.{case}.bwd_us"] = r["bwd_us"]
        if case.endswith(".b512"):
            values[f"autodiff.{case}.flops"] = r["flops"]
            values[f"autodiff.{case}.bytes"] = r["bytes"]
    return values, sources


def main(argv=None) -> int:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and the fewest units: a smoke run of seconds")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0

    _import_program()
    import numpy as np
    import checks
    import loops
    import ops as op_tier
    import spans

    sizes = loops.QUICK if args.quick else loops.FULL
    wl = loops.WORKLOADS[args.workload]
    digest = checks.program_digest(ROOT)
    stamp = env_stamp(np, digest)
    OUT.mkdir(parents=True, exist_ok=True)

    tracer = spans.Tracer() if args.trace else None
    units, setups, problems = loops.run_loop(wl, sizes, args.seed, args.seconds, OUT, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.install()                 # the check pass feeds layers the loop never calls
    try:
        check = checks.check_pass(wl.env_kind, args.seed, sizes, OUT)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += check["problems"]

    exact = {"check": check["exact"], "units": units[0].exact if units else None}
    for i, u in enumerate(units[1:], start=1):
        if u.exact != units[0].exact:
            problems.append(f"unit {i} exact counts differ from unit 0")
    mode = "quick" if args.quick else "full"
    problems += checks.compare_record(OUT / "exact", f"{digest[:16]}-{wl.name}-{args.seed}-{mode}",
                                      exact)

    iterations = sum(len(u.iters) for u in units)
    episodes = sum(len(e.info["lengths"]) for u in units for e in u.evals)
    attempted = iterations + episodes + check["ops"]
    rates = eval_rates(units, check["events"])
    detail = phase_detail(units, rates)
    detail["setup_seconds"] = setups
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "mode": mode,
              "env": stamp, "units": len(units), "problems": problems,
              "detail": detail, "exact": exact}

    names = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    units_of = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    if not units:
        values = {}
    elif args.trace:
        ops = op_tier.run_ops(sizes.op_repeats)
        values, report["layer_sources"] = per_layer(tracer, units, check, rates, ops)
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(units, setups, peak_rss_mb)
    missing = [n for n in names if values.get(n) is None]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {n: {"value": values[n], "unit": units_of[n]} for n in names if n not in missing}

    correct = not problems
    # each problem is one failed operation: an iteration that raised, or a check
    result = {"correct": correct, "attempted": max(attempted, len(problems)),
              "failed": len(problems), "metrics": metrics}
    report["correct"] = correct
    (OUT / f"report-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1, default=str))
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
