"""tools/bench.py: the kernel verdict, which only the invocation medians decide,
the topic tables, and the result records read from the checkout's current source."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "tools_bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
tools_bench = sys.modules["tools_bench"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tools_bench)


def _side(*medians):
    return {"invocation_medians_ms": list(medians)}


@pytest.mark.parametrize("parent, change, verdict", [
    (_side(10.0, 11.0, 12.0), _side(8.0, 9.0, 9.9), "faster"),
    (_side(10.0, 11.0, 12.0), _side(12.1, 13.0, 12.5), "slower"),
    # One parent invocation is faster than every change invocation, although
    # the parent's pooled median is the slower one.
    (_side(24.76, 25.03, 17.74), _side(19.82, 21.41, 21.18), "unresolved"),
    (_side(10.0, 11.0, 12.0), _side(10.0, 9.0, 8.0), "unresolved"),
])
def test_kernel_verdict_needs_every_invocation(parent, change, verdict):
    assert tools_bench.kernel_verdict(parent, change) == verdict


@pytest.mark.parametrize("name", sorted(tools_bench.TOPICS))
def test_every_topic_has_a_title_and_kernels(name):
    topic = tools_bench.TOPICS[name]
    assert topic.title.strip()
    assert topic.kernels and all(isinstance(kernel, dict) and kernel for kernel in topic.kernels)
    compile(tools_bench._TIMER.format(setup=topic.setup), f"<{name} timer>", "exec")


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
