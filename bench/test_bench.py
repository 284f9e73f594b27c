"""Tests of the benchmark itself: seeded case lists, the tracer's
self-checks and the result contract.

    python3 -m pytest -q bench

The tests that start worker passes take about a minute and a half in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_cases_other_seed_other_draw(workload):
    build = workloads.BUILDERS[workload]
    first = [c.case_id for c in build(7)]
    assert first == [c.case_id for c in build(7)]
    assert len(set(first)) == len(first)
    assert first != [c.case_id for c in build(8)]
    assert len(build(8)) == len(first)


def test_spread_draws_one_value_per_slice():
    rng = workloads.random.Random(3)
    for lo, hi, k in ((0, 10, 4), (121, 300, 7), (20, 120, 3)):
        picks = sorted(workloads.spread(rng, lo, hi, k))
        edges = [lo + ((hi - lo + 1) * i) // k for i in range(k + 1)]
        assert all(edges[i] <= p < edges[i + 1] for i, p in enumerate(picks))


def test_zeros_draws_criterion2_pairs_at_fixed_degrees():
    pairs = set(workloads.criterion2_pairs())
    cases = workloads.zeros_cases(5)
    degrees, wide = [], 0
    for case in cases:
        fields = dict(kv.split("=") for kv in case.case_id.split("/")[2].split(","))
        n, m, bits = int(fields["n"]), int(fields["m"]), int(fields["bits"])
        assert (n, m) in pairs
        degrees.append((n - m) // 2)
        wide += bits == 512
    assert sorted(degrees) == sorted(
        list(workloads.ZEROS_LADDER)
        + list(workloads.ZEROS_BLOCK) * workloads.ZEROS_BLOCK_REPEATS)
    assert wide == len(workloads.ZEROS_WIDE)


def test_known_defects_are_named_by_rule():
    cases = {c.case_id: c for s in range(20) for c in workloads.catalog_cases(s)}
    for case_id, case in cases.items():
        variant, rest = case_id.split("/", 2)[1:]
        n = int(rest.split(",")[0][2:])
        assert bool(case.known_defect) == (variant == "L2e" and n % 2 == 0 and n >= 2)
    assert all(p.known_defect for p in workloads.eval_probes())
    assert workloads.catalog_refuses("L2a", 4) and not workloads.catalog_refuses("L2a", 5)
    assert workloads.catalog_refuses("L2e", 3) and not workloads.catalog_refuses("P1", 3)


def test_s_labels_parse_exactly():
    assert workloads._gaussian_parts("3/2-2i") == (Fraction(3, 2), Fraction(-2))
    assert workloads._gaussian_parts("1/2+1i") == (Fraction(1, 2), Fraction(1))
    assert workloads._gaussian_parts("11/4") == (Fraction(11, 4), Fraction(0))
    assert workloads._complex_text("-1.5-2.25i") == workloads.mp.mpc(-1.5, -2.25)


def test_hyp_pfq_class_reads_the_spec():
    from legmellin import HPComplex, HypergeometricSpec

    assert tracing.hyp_pfq_class(HypergeometricSpec((-3, 1), (2,), 1)) == "terminating"
    assert tracing.hyp_pfq_class(HypergeometricSpec((Fraction(1, 2), 1), (3,), Fraction(1, 4))) == "disk"
    assert tracing.hyp_pfq_class(HypergeometricSpec((Fraction(1, 2), 1), (3,), -1)) == "minus_one"
    assert tracing.hyp_pfq_class(HypergeometricSpec((Fraction(1, 2), 1), (3,), HPComplex(1, 0))) == "unit"


def test_tracer_rebinds_everywhere_and_books_integrand_time():
    import legmellin
    from legmellin import mellin, quadrature

    original = quadrature.tanh_sinh
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mellin.tanh_sinh is not original
        assert legmellin.tanh_sinh is mellin.tanh_sinh
        with tracer.case("quad"):
            mellin.mellin_rep(mellin.RepVariant.TANH_QUAD, 3, 0, Fraction(3, 2), 64)
    finally:
        tracer.uninstall()
    assert quadrature.tanh_sinh is original and mellin.tanh_sinh is original
    tracer.check_case_sums()
    totals = tracing.layer_totals(tracer.spans)
    assert totals["quadrature.tanh_sinh.calls"] == 1
    assert totals["quadrature.tanh_sinh.nodes"] > 0
    assert totals["specfun.ferrers.calls"] > 0
    span = next(s for s in tracer.spans if s.name == "quadrature.tanh_sinh")
    assert 0 < span.extra["integrand_s"] < span.duration
    assert span.self_s == pytest.approx(span.duration - span.extra["integrand_s"])


def test_tracer_refuses_a_namespace_it_missed(monkeypatch):
    import types

    from legmellin import specfun

    stray = types.ModuleType("stray_holder")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stray.kept = tracer._originals["specfun.ferrers"]
        monkeypatch.setitem(sys.modules, "stray_holder", stray)
        with pytest.raises(tracing.TracerError, match="stray_holder.kept"):
            tracer.check_rebound()
    finally:
        tracer.uninstall()
    assert specfun.ferrers is tracer._originals["specfun.ferrers"]


def test_case_sum_check_catches_lost_time():
    tracer = tracing.Tracer()
    with tracer.case("a"):
        pass
    tracer.check_case_sums()
    tracer.spans[0].self_s += 1e-3
    with pytest.raises(tracing.TracerError, match="case a"):
        tracer.check_case_sums()


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(tracing.layer_metric_names())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    doc = json.loads((BENCH / "metrics.json").read_text())
    assert {m["name"] for m in doc["metrics"]} == (
        set(per_layer) | {m["name"] for m in spec["end_to_end"]})


def test_tail_percentile_leaves_ten_timings_beyond():
    for cases in (15, 17, 40, 104):
        q = run.tail_percentile(cases)
        pooled = cases * run.MIN_PASSES
        beyond = pooled - max(1, -(-q * pooled // 100))
        assert beyond >= 10
        assert pooled - max(1, -(-(q + 1) * pooled // 100)) < 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zeros", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _traced_pass(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=run._child_env())
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_counts_and_failures(workload):
    first, second = _traced_pass(workload, 3), _traced_pass(workload, 3)

    def counts(record):
        return {k: v for k, v in record["layers"].items() if not k.endswith("_s")}

    def failures(record):
        return [c[0] for c in record["cases"] if not c[2]]

    assert counts(first) == counts(second)
    assert failures(first) == failures(second)
