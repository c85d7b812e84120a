"""Tests of the benchmark's own code: span arithmetic, the sample-count
rule, failure accounting, and small-size runs of every workload.

    python3 -m pytest bench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl


def _span(id, parent, name, start, end, layer="bench", **attrs):
    return spans.Span(id, parent, name, layer, start, end, attrs=attrs)


def test_covered_merges_overlapping_and_nested_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(1, 4), (3, 6), (8, 10)]) == 7.0
    assert spans.covered([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_subtracts_only_what_children_cover():
    tree = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "grandchild", 2.0, 3.0),
        _span(3, 0, "b", 3.0, 6.0),
        _span(4, 0, "c", 8.0, 12.0),
    ]
    self_time = spans.self_times(tree)
    # root loses [1, 6] and the part of c inside it, [8, 10]
    assert self_time[0] == pytest.approx(3.0)
    assert self_time[1] == pytest.approx(2.0)
    assert self_time[2] == pytest.approx(1.0)
    assert self_time[4] == pytest.approx(4.0)


def test_span_index_counts_outermost_time_and_linalg_attribution():
    tree = [
        _span(0, None, "kernels.sample_kernel", 0.0, 5.0, "kernels"),
        _span(1, 0, "kernels.sample_kernel", 1.0, 2.0, "kernels"),
        _span(2, None, "moments.rf_diagnostic", 5.0, 9.0, "moments"),
        _span(3, 2, "linalg.svd", 5.0, 6.0, "moments", shape=[4, 8], complex=False,
              full_matrices=False, compute_uv=True),
        _span(4, 2, "linalg.svd", 6.0, 7.0, "moments", shape=[4, 8], complex=False,
              full_matrices=False, compute_uv=True),
    ]
    ix = spans.SpanIndex(tree)
    assert ix.calls("kernels.sample_kernel") == 2
    assert ix.seconds("kernels.sample_kernel") == pytest.approx(5.0)
    assert len(ix.under(ix.linalg("moments", "svd"), "moments.rf_diagnostic")) == 2
    assert spans.svd_flops(tree[3].attrs) == 14 * 8 * 16 + 8 * 64
    values_only = dict(tree[3].attrs, compute_uv=False, complex=True)
    assert spans.svd_flops(values_only) == 4 * (4 * 8 * 16 - 4 * 64 // 3)


def test_recorder_nests_spans_and_attributes_linalg_to_innermost_layer():
    recorder = spans.Recorder()
    with recorder.span("request"):
        assert recorder.innermost_layer() == "bench"
        with recorder.span("operators.classify", "operators"), recorder.span("x", "bench"):
            assert recorder.innermost_layer() == "operators"
    assert [s.parent for s in recorder.spans] == [None, 0, 1]
    assert all(s.end >= s.start for s in recorder.spans)


@pytest.mark.parametrize(
    "count, tail",
    [(1, None), (7, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, tail):
    assert run.tail_percentile(count) == tail


def test_timing_summary_reports_median_and_count():
    summary = run.timing_summary([3.0, 1.0, 2.0, 10.0])
    assert summary == {"p50": 2.5, "count": 4}
    large = run.timing_summary([float(i) for i in range(1, 101)])
    assert large["p50"] == 50.5 and large["count"] == 100 and large["p90"] == 90.0


def _request(tmp_path, command="classify", family="dirac"):
    config = tmp_path / "cfg.json"
    config.write_text('{"map": {"kind": "dirac"}, "ladder": {"n_max": 16}}')
    return wl.Request("test", command, family, str(config))


def test_raising_nonzero_and_wrong_requests_count_as_failures(tmp_path, monkeypatch):
    output = str(tmp_path / "out.json")
    good = wl.execute(_request(tmp_path), output)
    assert good.ok
    wrong = wl.execute(_request(tmp_path, family="1+x^2"), output)
    assert not wrong.ok and "lower_semi_frame" in wrong.problems[0]
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"map": {"kind": "no-such-map"}}')
    refused = wl.execute(wl.Request("invalid", "classify", "dirac", str(invalid)), output)
    assert refused.problems == ["exit code 2"]
    missing = wl.Request("missing", "classify", "dirac", str(tmp_path / "absent.json"))
    assert wl.execute(missing, output).problems[0].startswith("raised FileNotFoundError")

    def explode(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl.cli, "main", explode)
    raised = wl.execute(_request(tmp_path), output)
    assert raised.problems == ["raised RuntimeError: boom"]
    sentinel = {"name": "s", "value": 1.0, "passed": False}
    assert run.fail_ratio([good, wrong, refused, raised], [sentinel]) == pytest.approx(4 / 5)
    assert run.fail_ratio([good], []) == 0.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_small_pass_of_each_workload_passes_its_reference_checks(workload, tmp_path):
    requests = wl.prepare(workload, 7, tmp_path, wl.SMALL)
    assert sorted(wl.pass_order(requests, 7, 0), key=requests.index) == requests
    for request in requests:
        outcome = wl.execute(request, str(tmp_path / "out.json"))
        assert outcome.ok, (request.name, outcome.problems)


@pytest.mark.parametrize(
    "workload, metric, expected",
    [
        ("classify-ladder", "operators.svd_calls_per_stage", 9.0),
        ("dual-reconstruct", "operators.frame_operator_calls", 3 * 8),
        ("moment-probe", "moments.factorizations_per_kernel", 4.0),
    ],
)
def test_traced_small_pass_counts_and_restores_every_function(workload, metric, expected, tmp_path):
    import numpy as np

    from riggedframes import cli, operators, reporting

    originals = (cli.main, reporting.run, operators.sample_kernel, np.linalg.svd)
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        requests = wl.prepare(workload, 7, tmp_path, wl.SMALL)
        for index, request in enumerate(requests):
            recorder.request = index
            assert wl.execute(request, str(tmp_path / "out.json")).ok
    assert (cli.main, reporting.run, operators.sample_kernel, np.linalg.svd) == originals
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics[metric] == expected
    assert len({s.request for s in recorder.spans if s.name == "cli.main"}) == len(requests)
    assert set(metrics) == set(spans.PER_LAYER_UNITS) - {"trace.overhead_ratio"}


def test_parseval_sentinel_holds_below_the_underflow_point():
    assert wl.parseval_sentinel(64) <= wl.SENTINEL_TOLERANCE


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "moment-probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
