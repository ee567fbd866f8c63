"""Regenerate Table IV: GB/LS hardware-counter ratios per application."""

from benchmarks.conftest import render


def test_table4_render(benchmark):
    rendered = render(benchmark, "table4")
    # The matrix API executes more instructions for every problem (§V).
    for app, ratios in rendered.data.items():
        if ratios["instructions"] == ratios["instructions"]:  # not NaN
            assert ratios["instructions"] > 0.9
