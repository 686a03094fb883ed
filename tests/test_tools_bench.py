"""tools/bench.py: the kernel verdict, which only the invocation medians decide,
the topic tables, and the result records read from the checkout's current source."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "tools_bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
tools_bench = sys.modules["tools_bench"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tools_bench)


def _side(*medians, median=None, iqr=0.0, repeats=None):
    """A side of one kernel: its invocation medians, and its pooled median
    (the median of the invocation medians unless given), IQR and sample
    count (five samples per invocation unless given)."""
    pooled = sorted(medians)[len(medians) // 2] if median is None else median
    return {"invocation_medians_ms": list(medians), "median_ms": pooled, "iqr_ms": iqr,
            "repeats": 5 * len(medians) if repeats is None else repeats}


@pytest.mark.parametrize("parent, change, verdict", [
    (_side(10.0, 11.0, 12.0), _side(8.0, 9.0, 9.9), "faster"),
    (_side(10.0, 11.0, 12.0), _side(12.1, 13.0, 12.5), "slower"),
    # One parent invocation is faster than every change invocation, although
    # the parent's pooled median is the slower one.
    (_side(24.76, 25.03, 17.74), _side(19.82, 21.41, 21.18), "unresolved"),
    (_side(10.0, 11.0, 12.0), _side(10.0, 9.0, 8.0), "unresolved"),
    # The invocation medians separate, but the pooled medians differ by less
    # than the parent's spread: three invocations a side do not tell host
    # drift from code.
    (_side(10.0, 10.5, 11.0, iqr=3.0), _side(9.0, 9.4, 9.8), "unresolved"),
    (_side(10.0, 10.5, 11.0, iqr=3.0), _side(11.2, 11.6, 12.0), "unresolved"),
    # The same medians against a tight parent are resolved.
    (_side(10.0, 10.5, 11.0, iqr=0.8), _side(9.0, 9.4, 9.8), "faster"),
    (_side(10.0, 10.5, 11.0, iqr=0.8), _side(11.2, 11.6, 12.0), "slower"),
    # A once kernel: three invocations of one sample a side. Disjoint, yet
    # three samples give no spread to judge a difference by.
    (_side(10.0, 11.0, 12.0, repeats=3), _side(8.0, 9.0, 9.9, repeats=3), "unresolved"),
])
def test_kernel_verdict_needs_every_invocation(parent, change, verdict):
    assert tools_bench.kernel_verdict(parent, change) == verdict


@pytest.mark.parametrize("name", sorted(tools_bench.TOPICS))
def test_every_topic_has_a_title_and_kernels(name):
    topic = tools_bench.TOPICS[name]
    assert topic.title.strip()
    assert topic.kernels and all(isinstance(kernel, dict) and kernel for kernel in topic.kernels)
    for kernel in topic.kernels:
        compile(tools_bench.timer_script(topic, kernel), f"<{name} timer>", "exec")


def test_time_kernel_reports_each_sides_times_and_tracemalloc_peaks(monkeypatch):
    runs = {"parent": iter([0.3, 0.1, 0.2]), "change": iter([0.05, 0.04, 0.06])}

    def fake_invoke(checkout, topic, kernel):
        seconds = next(runs[checkout])
        return {"samples": [seconds, seconds], "peak_bytes": int(seconds * 1e9)}

    monkeypatch.setattr(tools_bench, "_invoke", fake_invoke)
    before, after = tools_bench.time_kernel("parent", "change", None, {})
    assert before["invocation_medians_ms"] == pytest.approx([300.0, 100.0, 200.0])
    assert before["invocation_peaks_mb"] == pytest.approx([300.0, 100.0, 200.0])
    assert before["tracemalloc_peak_mb"] == pytest.approx(200.0)
    assert after["tracemalloc_peak_mb"] == pytest.approx(50.0)
    assert after["median_ms"] == pytest.approx(50.0) and after["repeats"] == 6
    assert set(before) == {"median_ms", "iqr_ms", "repeats", "invocation_medians_ms",
                           "tracemalloc_peak_mb", "invocation_peaks_mb"}


def test_time_kernel_keeps_what_a_once_timer_adds(monkeypatch):
    # A once kernel's timer (synth's paper fold) also
    # reports the peak RSS around its one call and a digest of the result;
    # each becomes a per-invocation list.
    runs = iter(range(6))

    def fake_invoke(checkout, topic, kernel):
        i = next(runs)
        return {"samples": [1.0 + i], "peak_bytes": 10**6, "rss_before_mb": 100.0 + i,
                "rss_after_mb": 150.0 + i, "digest": "d"}

    monkeypatch.setattr(tools_bench, "_invoke", fake_invoke)
    before, after = tools_bench.time_kernel("parent", "change", None, {})
    assert before["invocation_rss_before_mb"] == [100.0, 103.0, 104.0]  # the sides alternate
    assert after["invocation_rss_after_mb"] == [151.0, 152.0, 155.0]
    assert after["invocation_digest"] == ["d"] * 3
    synth = tools_bench.TOPICS["synth"]
    assert tools_bench.timer_script(synth, synth.kernels[-1]) == tools_bench._ONCE.format(
        setup=synth.setup)
    assert tools_bench.timer_script(synth, synth.kernels[0]) == tools_bench._TIMER.format(
        setup=synth.setup)



def test_an_untraced_kernel_runs_its_invocations_without_a_peak(monkeypatch):
    # The cv topic's paper CV: one untraced run a side, its CPU seconds, usable
    # CPUs and children's peak RSS kept per invocation.
    calls = []

    def fake_invoke(checkout, topic, kernel):
        calls.append(checkout)
        return {"samples": [70.0], "peak_bytes": None, "cpu_s": 140.0, "cores_usable": 2,
                "children_rss_mb": 90.0, "digest": "d"}

    monkeypatch.setattr(tools_bench, "_invoke", fake_invoke)
    paper = tools_bench.TOPICS["cv"].kernels[-1]
    assert paper["untraced"] and paper["invocations"] == 1
    before, after = tools_bench.time_kernel("parent", "change", None, paper)
    assert calls == ["parent", "change"]
    assert before["tracemalloc_peak_mb"] is None and before["invocation_peaks_mb"] == []
    assert after["invocation_cpu_s"] == [140.0] and after["invocation_cores_usable"] == [2]


@pytest.mark.parametrize("name", ["serve", "cv"])
def test_only_one_part_kernels_are_pinned_to_the_lowest_usable_cpu(name):
    # A one-part kernel runs on one CPU through the affinity alone, on either
    # checkout; the cv kernels, and every kernel of one part per CPU, keep all.
    lowest = min(os.sched_getaffinity(0))
    for kernel in tools_bench.TOPICS[name].kernels:
        assert "parts" in kernel
        want = {**kernel, "cpu": lowest} if kernel["parts"] == 1 else kernel
        assert tools_bench.pinned(kernel) == want


def test_a_pinned_interpreter_reads_one_usable_cpu():
    checkout = Path(__file__).resolve().parents[1]
    topic = tools_bench.Topic(title="affinity", kernels=(), setup="""
import os
call = lambda: None
recorded = {"cpus": sorted(os.sched_getaffinity(0))}
""")
    cpu = min(os.sched_getaffinity(0))
    assert tools_bench._invoke(checkout, topic, {"parts": 1, "cpu": cpu})["cpus"] == [cpu]
    unpinned = tools_bench._invoke(checkout, topic, {"parts": None})["cpus"]
    assert unpinned == sorted(os.sched_getaffinity(0))


def test_the_serve_set_up_records_its_figures_on_this_checkout(tmp_path):
    # serve's real prepare and timer, on small kernels: the pool file is
    # written once, for load_csv only, and every call reports its figures.
    checkout = Path(__file__).resolve().parents[1]
    serve = tools_bench.TOPICS["serve"]
    kernels = [{"call": "load_csv", "rows": 2000, "parts": None},
               tools_bench.pinned({"call": "pipeline_predict", "gamma": 0.5, "rows": 2000,
                                   "parts": 1})]
    for kernel in kernels:
        kernel["scratch"] = str(tmp_path)
        subprocess.run([sys.executable, "-c", serve.prepare, json.dumps(kernel)],
                       env=tools_bench._env(checkout), check=True)
    assert [p.name for p in tmp_path.iterdir()] == ["pool-2000.csv"]
    for kernel in kernels:
        run = tools_bench._invoke(checkout, serve, kernel)
        assert len(run["samples"]) == tools_bench.REPEATS and run["peak_bytes"] > 0
        cpus = 1 if kernel["parts"] == 1 else len(os.sched_getaffinity(0))
        assert run["usable_cpus"] == cpus
        assert run["rss_mb"] > 0 and run["children_rss_mb"] >= 0
        # the warm-up, the timed calls and the traced call
        assert len(run["minflt"]) == tools_bench.REPEATS + 2
    assert run["fold_ms"] > 0 and all(faults >= 0 for faults in run["minflt"])


def _fake_checkout(tmp_path, records):
    """A checkout with a three-line ``src/`` and untraced cv-desk results."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "src" / "top.py").write_text("c = 3\n")
    results = tmp_path / ".perfbench" / "results"
    results.mkdir(parents=True)
    for seed, lines in records:
        record = {"workload": "cv-desk", "seed": seed, "environment": {"src_lines": lines}}
        (results / f"cv-desk-seed{seed}-trace0.json").write_text(json.dumps(record))
    # A traced record is never read, whatever its source.
    (results / "cv-desk-seed9-trace1.json").write_text(json.dumps({"seed": 9}))
    return tmp_path


def test_load_records_keeps_only_the_current_source(tmp_path, capsys):
    checkout = _fake_checkout(tmp_path, [(0, 3), (1, 2845), (2, 3), (3, 4)])
    assert tools_bench.src_lines(checkout) == 3
    records = tools_bench.load_records(checkout, "cv-desk")
    assert list(records) == [0, 2]
    out = capsys.readouterr().out
    assert "skipped 2 cv-desk results" in out
    assert "cv-desk-seed1-trace0.json" in out and "cv-desk-seed3-trace0.json" in out


def test_many_stale_results_give_one_short_line(tmp_path, capsys):
    # A checkout that kept every earlier run's results: one line counts them
    # and names the first and the last, not every file.
    checkout = _fake_checkout(tmp_path, [(seed, 2845) for seed in range(46)] + [(46, 3)])
    assert list(tools_bench.load_records(checkout, "cv-desk")) == [46]
    out = capsys.readouterr().out
    names = sorted(f"cv-desk-seed{seed}-trace0.json" for seed in range(46))
    assert out.count("\n") == 1 and len(out) < 200 + len(str(checkout))
    assert "skipped 46 cv-desk results" in out
    assert names[0] in out and names[-1] in out
    assert sum(name in out for name in names) == 2


def test_load_records_exits_when_no_result_matches(tmp_path):
    checkout = _fake_checkout(tmp_path, [(0, 2845), (1, 2926)])
    with pytest.raises(SystemExit, match="no cv-desk results"):
        tools_bench.load_records(checkout, "cv-desk")


def test_digests_equal_reads_every_digest_at_every_seed():
    def record(report, g05):
        return {"detail": {"report_digest": report, "fold_ms": [1.0],
                           "g0.5": {"output_digest": g05, "rows_per_s": 2.0}}}
    parent = {0: record("a", "x"), 1: record("b", "y")}
    assert tools_bench.digests_equal(parent, {0: record("a", "x"), 1: record("b", "y")}, [0, 1]) \
        == {"g0.5.output_digest": True, "report_digest": True}
    change = {0: record("a", "x"), 1: record("b", "z")}
    assert tools_bench.digests_equal(parent, change, [0, 1]) \
        == {"g0.5.output_digest": False, "report_digest": True}
    assert tools_bench.digests_equal(parent, change, [0])["g0.5.output_digest"]
