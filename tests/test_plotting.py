"""Tests for the ASCII plotting helpers used by the experiment reports."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.plotting import bar_chart, grouped_bar_chart, multi_line_chart


class TestBarChart:
    def test_basic_rendering(self):
        chart = bar_chart(["dseq", "dcand"], [10.0, 5.0], title="Fig. 9a")
        lines = chart.splitlines()
        assert lines[0] == "Fig. 9a"
        assert "dseq" in lines[1] and "dcand" in lines[2]
        # The larger value gets the longer bar.
        assert lines[1].count("#") > lines[2].count("#")

    def test_values_are_printed(self):
        chart = bar_chart(["a"], [1234], unit="s")
        assert "1,234 s" in chart

    def test_non_numeric_values_render_as_markers(self):
        chart = bar_chart(["naive", "dseq"], ["oom", 2.0])
        assert "oom" in chart
        assert "#" in chart

    def test_zero_values_have_no_bar(self):
        chart = bar_chart(["a", "b"], [0, 4])
        assert chart.splitlines()[0].count("#") == 0

    def test_log_scale_compresses_ratios(self):
        linear = bar_chart(["a", "b"], [1, 1000], width=60)
        logarithmic = bar_chart(["a", "b"], [1, 1000], width=60, log_scale=True)
        ratio_linear = linear.splitlines()[1].count("#") / linear.splitlines()[0].count("#")
        ratio_log = (
            logarithmic.splitlines()[1].count("#") / logarithmic.splitlines()[0].count("#")
        )
        assert ratio_log < ratio_linear

    def test_empty_input(self):
        assert "(no data)" in bar_chart([], [], title="empty")

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1, 2])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=10))
    def test_never_exceeds_width(self, values):
        labels = [f"v{i}" for i in range(len(values))]
        chart = bar_chart(labels, values, width=40)
        for line in chart.splitlines():
            assert line.count("#") <= 41


class TestGroupedBarChart:
    ROWS = [
        {"constraint": "N1(10)", "algorithm": "dseq", "total_s": 1.5},
        {"constraint": "N1(10)", "algorithm": "dcand", "total_s": 0.5},
        {"constraint": "N4(25)", "algorithm": "dseq", "total_s": 4.0},
        {"constraint": "N4(25)", "algorithm": "dcand", "total_s": 1.0},
    ]

    def test_groups_appear_once(self):
        chart = grouped_bar_chart(
            self.ROWS, "constraint", "algorithm", "total_s", title="Fig. 9"
        )
        assert chart.count("N1(10)") == 1
        assert chart.count("N4(25)") == 1
        assert chart.count("dseq") == 2

    def test_title_is_first_line(self):
        chart = grouped_bar_chart(self.ROWS, "constraint", "algorithm", "total_s", title="T")
        assert chart.splitlines()[0] == "T"


class TestLineCharts:
    def test_multi_line_chart_single_point(self):
        chart = multi_line_chart({"a": [(5, 10)]}, title="scaling")
        assert chart.splitlines()[0] == "scaling"
        assert chart.count("*") == 2  # the point and its legend entry

    def test_multi_line_chart_legend(self):
        chart = multi_line_chart(
            {"dseq": [(1, 1), (2, 2)], "dcand": [(1, 2), (2, 4)]},
            x_label="workers",
            y_label="minutes",
        )
        assert "* = dseq" in chart
        assert "o = dcand" in chart
        assert "workers" in chart and "minutes" in chart

    def test_multi_line_chart_empty(self):
        assert "(no data)" in multi_line_chart({})
        assert "(no data)" in multi_line_chart({"a": []})
