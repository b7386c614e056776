"""Tests of the benchmark's own code: tracing, self time, accounting, checks.

  PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_wrapped_E_of_records_a_build_span_through_the_bundles_binding():
    from csx import bundles, simpset

    tracer = tracing.Tracer(job=7)
    uninstall = tracing.install(tracer)
    try:
        bundles.E_of((0, 2, 1))
    finally:
        uninstall()
    by_id = {s["id"]: s for s in tracer.spans}
    builds = [s for s in tracer.spans if s["name"] == "simpset.build"]
    # E_of calls from_rules through csx.bundles' own import of the name
    assert any(by_id[s["parent"]]["name"] == "bundles.E_of" for s in builds)
    assert all(s["job"] == 7 and s["end"] >= s["start"] for s in tracer.spans)
    assert tracer.counts["simpset.simplices_built"] > 0
    assert bundles.from_rules is simpset.from_rules
    assert not hasattr(bundles.from_rules, "__wrapped__")


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": 0}


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(0, "job", 0.0, 10.0, None),
        _span(1, "setup", 0.0, 1.0, 0),
        _span(2, "a", 2.0, 6.0, 0),
        _span(3, "b", 3.0, 4.0, 2),
        _span(4, "b", 7.0, 9.5, 0),
    ]
    selfs = tracing.self_seconds(spans)
    assert selfs == {"job": 2.5, "setup": 1.0, "a": 3.0, "b": 3.5}
    assert sum(selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "p", 0.0, 10.0, None), _span(1, "x", 1.0, 5.0, 0), _span(2, "y", 3.0, 7.0, 0)]
    assert tracing.self_seconds(spans)["p"] == 4.0


def test_wrong_expected_answer_is_counted_as_a_failure():
    right = workloads.WORKLOADS["sc_homology"]
    chains = right.expected["chains"][:-1] + [right.expected["chains"][-1] + 1]
    wrong = dataclasses.replace(right, expected={**right.expected, "chains": chains})
    rng = random.Random(0)
    jobs = [run.run_job(ROOT, w, w.make_args(rng), job_id=i) for i, w in enumerate((right, wrong))]
    assert jobs[0].error is None
    assert jobs[1].error.startswith("chains")
    assert run.fail_frac(jobs) == 0.5
    assert run.end_to_end(jobs, jobs + jobs[:1], [0.1])["ok_frac"] == 0.5


def test_each_job_is_divided_by_the_references_around_it():
    def timed(wall):
        return run.Job(0, False, spawn=0.0, exit=wall)

    jobs = [timed(3.0), timed(8.0)]
    references = [timed(1.0), timed(2.0), timed(2.0)]
    assert run.job_ratios(jobs, references) == [2.0, 4.0]


def test_peak_rss_is_per_job_and_a_timeout_is_a_failure():
    sc = workloads.WORKLOADS["sc_homology"]
    big = run.run_job(ROOT, sc, sc.make_args(random.Random(0)))
    probe = run.run_job(ROOT, "probe", [])
    assert big.error is None and probe.error is None
    assert probe.rss_mb < big.rss_mb
    late = run.run_job(ROOT, sc, sc.make_args(random.Random(0)), timeout=0.05)
    assert late.error.startswith("timed out")


def test_malformed_report_is_a_failure_not_an_exception():
    audit = workloads.WORKLOADS["structure_audit"]
    assert workloads.check(audit, [], "not json").startswith("malformed report")
    assert workloads.check(audit, [], '{"checks": [{"name": "x"}]}').startswith("malformed report")


def test_gallery_check_rejects_a_wrong_extension_claim():
    gallery = workloads.WORKLOADS["bundle_gallery"]
    rows = [
        {"cochain": "0101", "degree": 2, "extends_over_3_cell": True, "groups": gallery.expected[2]}
    ]
    assert workloads.check(gallery, ["0101"], json.dumps({"rows": rows})).startswith("cochain 0101")


def test_manifest_matches_the_metrics_run_py_prints():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER


def test_run_py_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sc_homology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_job_self_times_add_up_to_its_wall_time():
    sc = workloads.WORKLOADS["sc_homology"]
    job = run.run_job(ROOT, sc, sc.make_args(random.Random(0)), job_id=3, traced=True)
    assert job.error is None
    values = run.layer_values(job)
    assert abs(sum(values[m] for m in run.SPAN_METRICS) - job.wall) < 1e-9
    assert values["homology.snf_sparse_s"] + values["homology.crosscheck_s"] > 0
    assert all(s["job"] == 3 for s in run.job_spans(job))
