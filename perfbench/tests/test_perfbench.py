"""Tests of the benchmark itself: generators, span arithmetic, output checks.

    python3 -m pytest perfbench/tests -q      # from the checkout root
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)
    strata = [q["stratum"] for q in workloads.generate(workload, 3)]
    assert sorted(strata) == sorted(q["stratum"] for q in workloads.generate(workload, 4))


@pytest.mark.parametrize("workload", ["exact-chain", "exact-general"])
def test_every_exact_query_has_a_recorded_output(workload):
    recorded = REFERENCE[workload]["outputs"]
    for seed in (1, 2, 99, 12345):
        assert all(workloads.query_key(q) in recorded
                   for q in workloads.generate(workload, seed))


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 8.5, 3, 0],
        ["c", 6.5, 7.0, 4, 0],  # nested in a span of its own name
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.0, 0.5]
    totals = tracing.layer_totals(spans, {2: 5, 4: 7, 5: 100})
    assert totals["a"]["self_s"] == 3.0
    assert totals["b"] == {"calls": 2, "self_s": 3.5, "total_s": 7.0, "work": 0}
    # the nested c is counted as a call but not again in total time or work
    assert totals["c"] == {"calls": 3, "self_s": 3.5, "total_s": 3.5, "work": 12}
    assert tracing.has_descendant(spans, "c") == {0, 1, 3, 4}


def test_op_latency_is_the_median_over_passes_and_tail_has_ten_beyond():
    reps = []
    for factor in (1.0, 3.0, 1.1):  # the second pass is slow throughout
        rep = run.Rep()
        rep.latencies = [factor * k for k in range(1, 21)]
        reps.append(rep)
    lat = run.op_latencies(reps)
    assert lat == [1.1 * k for k in range(1, 21)]
    assert run.tail(lat) == (50.0, 1.1 * 10)


def _cheap_chain_batch():
    queries = [q for q in workloads.generate("exact-chain", 1)
               if q["stratum"] in ("cum2", "mom2")][:12]
    return queries, ops.prepare("exact-chain", queries, str(HERE / "out"))


def test_corrupted_reference_value_is_counted_as_a_failure():
    queries, calls = _cheap_chain_batch()
    rep = run.run_batch(calls)
    verdicts = ops.check("exact-chain", queries, rep.outputs, REFERENCE, 1)
    assert run.count_failures([rep], verdicts)[0] == 0

    corrupted = json.loads(json.dumps(REFERENCE))
    key = workloads.query_key(queries[0])
    corrupted["exact-chain"]["outputs"][key] += "1"
    verdicts = ops.check("exact-chain", queries, rep.outputs, corrupted, 1)
    failed, reasons = run.count_failures([rep], verdicts)
    assert failed >= 1 and "recorded" in reasons[0]


def test_kappa2_identity_check_can_fail():
    queries, calls = _cheap_chain_batch()
    q = next(q for q in queries if q["op"] == "cumulant")
    forged = {"exact-chain": {"outputs": {workloads.query_key(q): "7/3"}}}
    assert "kappa_2" in ops.check("exact-chain", [q], ["7/3"], forged, 1)[0]


def test_monte_carlo_z_check_and_recorded_bits():
    q = workloads.generate("mc-crosscheck", workloads.DEFAULT_SEED)
    q = [x for x in q if x["stratum"] == "cum3"][:1]
    out = [ops.prepare("mc-crosscheck", q, str(HERE / "out"))[0]()]
    assert ops.check("mc-crosscheck", q, out, REFERENCE, workloads.DEFAULT_SEED) == [None]
    mean_hex, se_hex = out[0][0]
    shifted = [[[(float.fromhex(mean_hex) + 12 * float.fromhex(se_hex)).hex(), se_hex]]]
    verdict = ops.check("mc-crosscheck", q, shifted, REFERENCE, seed=123)[0]
    assert verdict is not None and "|z|" in verdict
    verdict = ops.check("mc-crosscheck", q, shifted, REFERENCE, workloads.DEFAULT_SEED)[0]
    assert "bit-identical" in verdict


def test_traced_outputs_are_bit_identical_and_patches_are_undone():
    import ptlab.montecarlo as mc
    import ptlab.perms as pm
    import ptlab.wick as wick
    originals = (mc.sample_wishart, mc.polar_normals, wick.enumerate_bipartite_pairings,
                 pm.PartialTranspose.eval_arrays, pm.EntryPermutation.is_symmetric)
    queries = [x for x in workloads.generate("mc-crosscheck", 2) if x["stratum"] == "cum3"][:1]
    queries += _cheap_chain_batch()[0][:4]
    calls = (ops.prepare("mc-crosscheck", queries[:1], str(HERE / "out"))
             + ops.prepare("exact-chain", queries[1:], str(HERE / "out")))
    plain = [call() for call in calls]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [call() for call in calls]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (mc.sample_wishart, mc.polar_normals, wick.enumerate_bipartite_pairings,
            pm.PartialTranspose.eval_arrays, pm.EntryPermutation.is_symmetric) == originals

    layers = tracing.layer_totals(tracer.spans, tracer.counters)
    samples = queries[0]["samples"]
    assert layers["montecarlo.draw"]["calls"] == samples
    assert layers["montecarlo.polar_normals"]["work"] == samples * 2 * queries[0]["M"] ** 2
    assert layers["wick.count_admissible"]["calls"] > 0
    assert all(a["self_s"] >= 0 for a in layers.values())


def test_listed_per_layer_metrics_are_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = set(tracing.metric_names()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= reported
