"""tools/bench.py: the kernel verdict, which only the invocation medians decide,
and the topic tables."""

import importlib.util
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
