"""Tests for the utils subpackage (rng plumbing, ASCII rendering)."""

import numpy as np
import pytest

from repro.utils.rng import (
    DEFAULT_SEED,
    derive_rng,
    make_rng,
)
from repro.utils.tables import ascii_plot, format_series, format_table


class TestRng:
    def test_none_maps_to_default_seed(self):
        a = make_rng(None)
        b = make_rng(DEFAULT_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert make_rng(gen) is gen

    def test_derive_rng_independent_streams(self):
        a = derive_rng(7, "alpha")
        b = derive_rng(7, "beta")
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "alpha", 3)
        b = derive_rng(7, "alpha", 3)
        assert list(a.integers(0, 100, 5)) == list(b.integers(0, 100, 5))


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["name", "x"], [("a", 1.5), ("bb", 22.25)])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "22.25" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [(1,)])

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="Hello")
        assert text.startswith("Hello")

    def test_nan_renders_as_dash(self):
        text = format_table(["a"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_format_series(self):
        text = format_series("alg", [1, 2], {"X": [0.5, 1.0], "Y": [2, 3]})
        assert "X" in text and "Y" in text
        with pytest.raises(ValueError, match="points"):
            format_series("alg", [1, 2], {"X": [0.5]})

    def test_ascii_plot_contains_legend_and_bounds(self):
        text = ascii_plot({"up": [1.0, 2.0, 4.0]}, [1, 2, 3], title="T")
        assert "T" in text and "up" in text
        assert "4" in text and "1" in text

    def test_ascii_plot_degenerate_inputs(self):
        assert ascii_plot({}, [], title="x") == "x"
        flat = ascii_plot({"f": [1.0, 1.0]}, [1, 2])
        assert "f" in flat
