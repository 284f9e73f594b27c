"""One pass of a workload in a fresh interpreter.

Started by run.py, one pass at a time.  The pass imports the package from
the checkout's `src/`, builds the seeded case list, issues the cases one
at a time (closed loop, one client), checks every verdict and prints one
JSON line with its timings.  With --trace 1 the span tracer is installed
before the first case and its self-checks run after the last.

    python3 bench/worker.py --workload zeros --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0,
                        help="run the workload's fixed probes instead of its cases")
    parser.add_argument("--spans", default=None,
                        help="write the traced spans to this file")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import legmellin  # noqa: F401  (a CLI invocation pays this import too)
    import tracer as tracing
    import workloads

    if args.probes:
        cases = workloads.eval_probes() if args.workload == "eval" else []
    else:
        cases = workloads.BUILDERS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    first_issue = time.monotonic()
    for case in cases:
        scope = tracer.case(case.case_id) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with scope:
                passed, note = case.run()
        except tracing.TracerError:
            raise
        except Exception as exc:  # any escape is a failed verdict, by type
            passed, note = False, f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - started
        results.append([case.case_id, elapsed, bool(passed), note,
                        case.known_defect])
        # probes print as they finish, so a killed probe pass keeps the rest
        if args.probes:
            print(json.dumps({"probe": results[-1]}), flush=True)
    last_verdict = time.monotonic()

    out = {
        "first_issue": first_issue,
        "last_verdict": last_verdict,
        "cases": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        tracer.check_case_sums()
        probe_ids = frozenset(c[0] for c in results) if args.probes else frozenset()
        totals = tracing.layer_totals(tracer.spans, probe_ids)
        if not args.probes:
            missing = [layer for layer in workloads.REQUIRED_LAYERS[args.workload]
                       if not totals.get(f"{layer}.calls")]
            if missing:
                raise tracing.TracerError(
                    f"{args.workload} must reach {', '.join(missing)}")
        out["layers"] = totals
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
