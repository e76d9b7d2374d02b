"""Tests for the ASCII bar-chart renderer."""

from repro.bench.charts import BAR, chart_from_results, render_bar_chart


class TestRenderBarChart:
    def _chart(self, log_scale=True):
        return render_bar_chart(
            "Demo",
            ["g1", "g2"],
            {
                "fast": {"g1": 0.001, "g2": 0.002},
                "slow": {"g1": 0.1, "g2": "O.O.M."},
            },
            width=20, log_scale=log_scale)

    def test_contains_groups_and_series(self):
        chart = self._chart()
        for token in ("Demo", "g1", "g2", "fast", "slow"):
            assert token in chart

    def test_oom_rendered_as_annotation_without_bar(self):
        chart = self._chart()
        oom_line = next(line for line in chart.splitlines()
                        if "O.O.M." in line)
        assert BAR not in oom_line

    def test_larger_value_longer_bar(self):
        chart = self._chart()
        lines = chart.splitlines()
        g1_fast = next(l for l in lines if l.strip().startswith("fast")
                       and "1.0 ms" in l)
        g1_slow = next(l for l in lines if l.strip().startswith("slow")
                       and "100.0 ms" in l)
        assert g1_slow.count(BAR) > g1_fast.count(BAR)

    def test_log_scale_compresses_ratios(self):
        linear = self._chart(log_scale=False)
        log = self._chart(log_scale=True)

        def bar_of(chart, marker):
            return next(l for l in chart.splitlines()
                        if marker in l and "|" in l).count(BAR)

        # 100x ratio: linear nearly flattens the small bar, log keeps
        # both readable.
        assert bar_of(linear, "1.0 ms") <= 1
        assert bar_of(log, "1.0 ms") >= 1
        assert bar_of(log, "100.0 ms") < 100 * max(
            bar_of(log, "1.0 ms"), 1)

    def test_minimum_positive_bar_is_one_cell(self):
        chart = render_bar_chart(
            "T", ["g"], {"a": {"g": 1e-9}, "b": {"g": 1.0}},
            width=10)
        smallest = next(l for l in chart.splitlines()
                        if l.strip().startswith("a"))
        assert smallest.count(BAR) == 1

    def test_bars_never_exceed_width(self):
        chart = render_bar_chart(
            "T", ["g"], {"a": {"g": 5.0}, "b": {"g": 500.0}}, width=12)
        assert max(line.count(BAR) for line in chart.splitlines()) <= 12

    def test_all_strings_chart(self):
        chart = render_bar_chart(
            "T", ["g"], {"a": {"g": "O.O.M."}}, width=10)
        assert "O.O.M." in chart

    def test_missing_group_renders_dash(self):
        chart = render_bar_chart("T", ["g1", "g2"],
                                 {"a": {"g1": 1.0}}, width=10)
        assert "-" in chart


class TestChartFromResults:
    def test_unwraps_run_results(self):
        class Dummy:
            elapsed_seconds = 0.5
        chart = chart_from_results("T", ["g"],
                                   {"sys": {"g": Dummy()}})
        assert "500.0 ms" in chart

    def test_passes_markers_through(self):
        chart = chart_from_results("T", ["g"],
                                   {"sys": {"g": "O.O.M."}})
        assert "O.O.M." in chart
