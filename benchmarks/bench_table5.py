"""Regenerate Table V: counter ratios between §V-B variant pairs."""

from benchmarks.conftest import render


def test_table5_render(benchmark):
    rendered = render(benchmark, "table5")
    # gb-res iterates the residual vector twice per round where ls-soa's
    # fused loop passes once: instruction ratio > 1 (§V-B "pr").
    assert rendered.data["pr gb-res/ls-soa"]["instructions"] > 1.0
