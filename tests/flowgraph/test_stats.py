"""Per-node accounting helpers."""

from __future__ import annotations

from repro.flowgraph.stats import percentile


def test_percentile_interpolates_linearly():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.50) == 2.5  # order-insensitive
