"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 -m pytest -q perfbench
"""

import json

import numpy as np

import baseline
import run
import spans
import workloads

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _assert_metrics(result, names):
    assert set(result["metrics"]) == names
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0 and np.isfinite(m["value"])


def test_contract_names_match_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {k: v[3] for k, v in spans.LAYER_METRICS.items()}
    layer_units["trace.overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layer_units
    assert set(baseline.LAYER_MAP) == set(layer_units)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_passes_its_checks_and_emits_every_metric():
    for name in workloads.WORKLOADS:
        record = run.measure(name, seed=11, seconds=0, trace=False, toy=True)
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record["detail"]["failures"]
        _assert_metrics(result, set(run.END_TO_END_UNITS))


def test_traced_run_emits_every_layer_metric():
    record = run.measure("probe", seed=11, seconds=0, trace=True, toy=True)
    assert record["result"]["correct"], record["detail"]["failures"]
    _assert_metrics(record["result"], set(spans.LAYER_METRICS) | {"trace.overhead"})


def test_wrong_reference_raises_fail_share(monkeypatch):
    exact = workloads.product_reference
    monkeypatch.setattr(workloads, "product_reference",
                        lambda *args: exact(*args) + 1e-9)
    record = run.measure("probe", seed=11, seconds=0, trace=False, toy=True)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] == 1
    assert record["detail"]["fail_share"] > 0
