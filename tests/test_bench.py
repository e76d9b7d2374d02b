"""Tests for the experiment harness: datasets, tables, runners."""

import pytest

from repro.bench.datasets import (
    DATASETS,
    SCALE_FACTOR,
    dataset_database,
    dataset_graph,
    dataset_spec,
    default_start_vertex,
)
from repro.bench.harness import (
    NOT_AVAILABLE,
    OOM,
    ExperimentTable,
    format_cell,
    run_or_oom,
)
from repro.errors import ConfigurationError, OutOfMemoryError


class TestDatasetRegistry:
    def test_contains_paper_datasets(self):
        for name in ("rmat27", "rmat32", "twitter", "uk2007", "yahooweb"):
            assert name in DATASETS

    def test_scale_factor_is_two_to_thirteen(self):
        assert SCALE_FACTOR == 8192

    def test_rmat_scaled_sizes(self):
        graph = dataset_graph("rmat27")
        assert graph.num_vertices == 1 << (27 - 13)
        assert graph.num_edges == 16 * graph.num_vertices

    def test_rmat30_uses_33_config(self):
        db = dataset_database("rmat30")
        assert db.config.page_id_bytes == 3
        assert db.config.slot_bytes == 3

    def test_small_rmat_uses_22_config(self):
        db = dataset_database("rmat27")
        assert db.config.page_id_bytes == 2
        assert db.config.slot_bytes == 2

    def test_graphs_are_cached(self):
        assert dataset_graph("rmat26") is dataset_graph("rmat26")

    def test_weighted_variant_differs(self):
        plain = dataset_graph("rmat26")
        weighted = dataset_graph("rmat26", weighted=True)
        assert plain.weights is None
        assert weighted.weights is not None

    def test_symmetrised_variant(self):
        sym = dataset_graph("rmat26", symmetrised=True)
        pairs = set(zip(*sym.edge_list()))
        assert all((t, s) in pairs for s, t in list(pairs)[:100])

    def test_databases_validate(self):
        dataset_database("rmat26").validate()
        dataset_database("twitter").validate()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            dataset_spec("facebook")

    def test_default_start_vertex_is_busiest(self):
        graph = dataset_graph("rmat26")
        start = default_start_vertex(graph)
        assert graph.out_degrees()[start] == graph.out_degrees().max()

    def test_real_graph_sizes_near_targets(self):
        for name in ("twitter", "uk2007", "yahooweb"):
            spec = dataset_spec(name)
            graph = dataset_graph(name)
            target = spec.paper_edges / SCALE_FACTOR
            assert 0.4 * target < graph.num_edges < 2.0 * target


class TestRunOrOOM:
    def test_passes_through_results(self):
        assert run_or_oom(lambda: 42) == 42

    def test_maps_oom_to_marker(self):
        def boom():
            raise OutOfMemoryError("too big")
        assert run_or_oom(boom) == OOM

    def test_propagates_other_errors(self):
        def bug():
            raise ValueError("not a capacity problem")
        with pytest.raises(ValueError):
            run_or_oom(bug)

    def test_forwards_arguments(self):
        assert run_or_oom(lambda a, b=0: a + b, 1, b=2) == 3


class TestFormatCell:
    def test_strings_pass_through(self):
        assert format_cell(OOM) == "O.O.M."
        assert format_cell(NOT_AVAILABLE) == "N/A"

    def test_none_renders_dash(self):
        assert format_cell(None) == "-"

    def test_float_renders_as_time(self):
        assert format_cell(1.5) == "1.5 s"

    def test_result_like_object(self):
        class Dummy:
            elapsed_seconds = 0.002
        assert format_cell(Dummy()) == "2.0 ms"

    def test_rescale(self):
        assert format_cell(0.001, rescale=1000) == "1.0 s"


class TestExperimentTable:
    def _table(self):
        table = ExperimentTable("Demo", ["a", "b"], caption="note")
        table.add_row("row1", [1, "x"])
        table.add_row("row2", [2, "yy"])
        return table

    def test_render_contains_everything(self):
        text = self._table().render()
        assert "Demo" in text
        assert "row1" in text and "row2" in text
        assert "yy" in text
        assert "note" in text

    def test_columns_aligned(self):
        lines = self._table().render().splitlines()
        data_lines = [line for line in lines if "|" in line]
        assert len({line.index("|") for line in data_lines}) == 1

    def test_wrong_cell_count_rejected(self):
        table = ExperimentTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("r", [1])

    def test_save_writes_file(self, tmp_path):
        path = self._table().save(str(tmp_path), "demo.txt")
        with open(path) as handle:
            assert "Demo" in handle.read()

    def test_show_returns_table(self, capsys):
        table = self._table()
        assert table.show() is table
        assert "Demo" in capsys.readouterr().out
