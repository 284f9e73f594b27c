"""legmellin benchmark: seeded verification workloads, timed end to end.

    python3 bench/run.py --workload zeros --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Each pass is a fresh single-threaded interpreter (bench/worker.py) that
imports the package, builds the seeded case list and checks every
verdict, as a CLI invocation or a test session would: the package's and
mpmath's caches start empty.  Passes run one at a time, never
concurrently, until the next one would overrun --seconds (at least
MIN_PASSES).  Every pass of a run issues the same cases, so per-case
counts repeat exactly and timings are medians over cold passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics from the traced ones,
plus the tracing overhead measured against the untraced ones.  The eval
workload also runs its fixed probes once per run, in a pass of their own.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `correct` is false when a case
fails that is not a known defect (see workloads.py); known defects still
count in `failed`.  --workload all runs every workload untraced and then
traced and prints every metric as `<workload>.<metric>`.  The lines before it list the
host, the failed case ids with their reasons, and how the latency
percentile was chosen; bench/out/ keeps the whole record of each run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"

MIN_PASSES = 3            # medians need three; the tail percentile assumes it
TRACED_PAIRS = 2          # untraced/traced pairs a traced run needs at least
HARD_STOP_S = 120.0       # no new pass starts after this, whatever --seconds says
PROBE_TIMEOUT_S = 10.0    # probes past this count as failed (a wall-clock cliff)

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def host_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEGMELLIN_PRECISION_BITS", None)   # cases pass --precision
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "case_p50_ms": "ms",
             "case_tail_ms": "ms", "peak_rss_mb": "MB"}


def run_pass(workload: str, seed: int, trace: bool, deadline: float,
             probes: bool = False, spans: Path = None) -> dict:
    """One worker process; returns its record with the spawn time."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)),
            "--probes", str(int(probes))]
    if spans is not None:
        argv += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        if not probes:
            raise BenchError(f"{workload} pass overran its {timeout:.0f} s") from None
        done = [json.loads(line)["probe"] for line in out.splitlines()
                if line.startswith('{"probe"')]
        seen = {c[0] for c in done}
        for case in workloads.eval_probes():
            if case.case_id not in seen:
                done.append([case.case_id, timeout, False,
                             f"timeout: no verdict within {timeout:.0f} s",
                             case.known_defect])
        return {"cases": done, "spawned": spawned}
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{err[-3000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["spawned"] = spawned
    return record


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(cases_per_pass: int) -> int:
    """Highest whole percentile with at least ten case timings beyond it,
    fixed from the minimum pass count so every run reports the same one."""
    pooled = cases_per_pass * MIN_PASSES
    return math.floor(100 * (pooled - 10) / pooled)


def verdicts(passes) -> dict:
    """case id -> (passed, note, known defect); passes must agree."""
    table = {}
    for record in passes:
        for case_id, _, passed, note, known in record["cases"]:
            if case_id in table and table[case_id][0] != passed:
                raise BenchError(f"{case_id}: verdict changed between passes")
            table.setdefault(case_id, (passed, note, known))
    return table


def end_to_end(passes) -> dict:
    cases = [c[1] * 1000 for record in passes for c in record["cases"]]
    q = tail_percentile(len(passes[0]["cases"]))
    return {
        "setup_s": statistics.median(r["first_issue"] - r["spawned"] for r in passes),
        "wall_s": statistics.median(r["last_verdict"] - r["first_issue"] for r in passes),
        "case_p50_ms": statistics.median(cases),
        "case_tail_ms": percentile(cases, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }, {"tail_percentile": q, "case_timings": len(cases), "passes": len(passes)}


def per_layer(untraced, traced, probe_record) -> dict:
    names = [name for name, _ in tracing.layer_metric_names()]
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
              for r in traced]
    if any(c != counts[0] for c in counts):
        raise BenchError("layer counts differ between traced passes of one seed")
    layers = {}
    for name in names:
        if name.endswith("_s"):
            layers[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        else:
            layers[name] = int(counts[0].get(name, 0))
    if probe_record is not None:
        layers["cli.run_command.probe_s"] = probe_record.get("layers", {}).get(
            "cli.run_command.probe_s", 0.0)
    ratios = [(t["last_verdict"] - t["first_issue"])
              / (u["last_verdict"] - u["first_issue"])
              for u, t in zip(untraced, traced)]
    layers["trace.overhead_share"] = statistics.median(ratios) - 1
    unknown = set(k for r in traced for k in r["layers"]) - set(names)
    if unknown:
        raise BenchError(f"spans outside the metric list: {sorted(unknown)}")
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the result object plus the lines printed before it."""
    started = time.monotonic()
    budget_end = started + seconds
    hard_stop = started + HARD_STOP_S
    kill_at = started + 170.0

    untraced, traced = [], []
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    while True:
        now = time.monotonic()
        done = len(traced) if trace else len(untraced)
        need = TRACED_PAIRS if trace else MIN_PASSES
        history = [r["last_verdict"] - r["spawned"] for r in untraced + traced]
        step = (2 if trace else 1) * (max(history) if history else 0.0)
        if done >= need and (now + step > budget_end or now > hard_stop):
            break
        untraced.append(run_pass(workload, seed, False, kill_at))
        if trace:
            traced.append(run_pass(workload, seed, True, kill_at, spans=spans))

    probe_record = None
    if workload == "eval":
        probe_record = run_pass(workload, seed, bool(trace),
                                min(kill_at, time.monotonic() + PROBE_TIMEOUT_S),
                                probes=True)

    table = verdicts(untraced + traced + ([probe_record] if probe_record else []))
    failed = {cid: v for cid, v in table.items() if not v[0]}
    unexpected = sorted(cid for cid, v in failed.items() if not v[2])
    if trace:
        metrics, detail = per_layer(untraced, traced, probe_record), {}
        units = dict(tracing.layer_metric_names())
    else:
        metrics, detail = end_to_end(untraced)
        units = E2E_UNITS

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host_facts(), **detail,
        "failed": {cid: v[1] for cid, v in sorted(failed.items())},
        "unexpected_failures": unexpected, "metrics": metrics,
        "passes": untraced + traced,
        "probes": probe_record["cases"] if probe_record else [],
    }
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    lines = ["host " + json.dumps(record["host"])]
    for cid in sorted(failed):
        tag = "known defect" if failed[cid][2] else "UNEXPECTED"
        lines.append(f"failed [{tag}] {cid}: {failed[cid][1]}")
    if detail:
        lines.append(f"case_tail_ms is p{detail['tail_percentile']} over "
                     f"{detail['case_timings']} case timings from "
                     f"{detail['passes']} passes")
    return {
        "lines": lines,
        "result": {
            "correct": not unexpected,
            "attempted": len(table),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all: each workload untraced "
                             "then traced, every metric prefixed by its workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "legmellin" / "__init__.py").is_file():
        print(f"no legmellin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(run["lines"]))
        print(json.dumps(run["result"]))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_workload(workload, args.seed, args.seconds, trace)
            print("\n".join(f"{workload}: {line}" for line in run["lines"]))
            result = run["result"]
            combined["correct"] &= result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload}: {name} = {metric['value']} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (BenchError, tracing.TracerError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
