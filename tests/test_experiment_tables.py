"""Structural tests for the experiment functions (fast subsets only)."""

from repro.bench import experiments


class TestTableStructure:
    def test_table2_rows_and_columns(self):
        table = experiments.table2_id_configurations()
        assert len(table.rows) == 3
        assert len(table.columns) == 3
        assert any("80.00 GB" in cell
                   for _, cells in table.rows for cell in cells)

    def test_table3_subset(self):
        table = experiments.table3_dataset_statistics(["rmat26"])
        assert len(table.rows) == 1
        label, cells = table.rows[0]
        assert label == "rmat26"
        assert cells[0] == "8192"          # vertices
        assert cells[1] == "131072"        # edges

    def test_table4_subset(self):
        table = experiments.table4_wa_sizes(["rmat28"])
        (_, cells), = table.rows
        assert cells[1] == "64.00 KB"      # BFS WA: 2 B x 32768 vertices
        assert cells[2] == "128.00 KB"     # PageRank WA: 4 B x 32768

    def test_table5_has_na_for_yahooweb(self):
        table = experiments.table5_totem_partitions()
        yahoo = dict(table.rows)["yahooweb"]
        assert yahoo[2] == "N/A"
        assert yahoo[3] == "N/A"
        assert dict(table.rows)["twitter"][3] == "85:15"

    def test_figure10_subset_monotone(self):
        table = experiments.figure10_streams(
            "BFS", names=["rmat26"], stream_counts=(1, 4, 16))
        (_, cells), = table.rows
        # Parse "NNN.N us"-style cells back into seconds to compare.
        def parse(cell):
            value, unit = cell.split()
            scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
            return float(value) * scale
        times = [parse(cell) for cell in cells]
        assert times[0] > times[1] > times[2] * 0.999

    def test_figure9_row_labels(self):
        table = experiments.figure9_strategies("BFS", name="rmat27")
        labels = [label for label, _ in table.rows]
        assert labels == ["Strategy-P", "Strategy-S"]
        assert table.columns == ["in-memory", "2 SSDs", "1 SSD",
                                 "2 HDDs"]

    def test_figure14_has_three_techniques(self):
        table = experiments.figure14_micro(
            "BFS", densities=(4, 8), rmat_scale=12)
        labels = [label for label, _ in table.rows]
        assert labels == ["vertex-centric", "edge-centric", "hybrid"]

    def test_extended_algorithms_table(self):
        table = experiments.extended_algorithms(names=("rmat26",))
        labels = [label for label, _ in table.rows]
        assert "K-core (k=8)" in labels
        assert "Radius (8 sketches)" in labels

    def test_comparison_figures_embed_charts(self):
        table = experiments.figure8_gpu("BFS", datasets=["twitter"])
        assert "chart" in table.caption
        assert "#" in table.caption  # at least one bar

    def test_figure11_returns_two_tables(self):
        elapsed, hits = experiments.figure11_cache(
            names=["rmat26"],
            cache_sizes=(4096, 65536))
        assert len(elapsed.rows) == 1
        assert len(hits.rows) == 1
        assert hits.rows[0][1][-1].endswith("%")
