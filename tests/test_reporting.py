import json

import pytest

from fruitbench.datamodel import CategoryStats, DatasetStats
from fruitbench.errors import ValidationError
from fruitbench.evaluation import CategoryReport, EvaluationReport
from fruitbench.reporting import (
    ExperimentGrid,
    GridRow,
    TimingRecord,
    load_timing_log,
    render_metric_grid,
    render_stats_table,
    summarize_timing,
)


def stats_row(name, images, bboxes, avg_boxes, avg_size, region=""):
    return CategoryStats(name, images, bboxes, avg_boxes, avg_size, region)


def parse_markdown(text):
    lines = [l for l in text.strip().splitlines() if not set(l) <= {"|", "-", " "}]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]


FRUIT_STATS = DatasetStats(
    per_category=(
        stats_row("Apple", 812, 62040, 62040 / 812, 1193.2, "California & Michigan"),
        stats_row("Orange", 926, 45834, 45834 / 926, 1177.8, "California"),
        stats_row("Lemon", 958, 42238, 42238 / 958, 823.4, "California"),
        stats_row("Grapefruit", 490, 12118, 12118 / 490, 2232.1, "California"),
        stats_row("Tangerine", 1062, 85785, 85785 / 1062, 1068.0, "California"),
    ),
    total=stats_row("Total", 4248, 248015, 248015 / 4248, 1132.9, "California & Michigan"),
)


class TestRenderStatsTable:
    def test_fruit_rows(self):
        rows = parse_markdown(render_stats_table(FRUIT_STATS))
        apple = rows[1]
        assert apple[:5] == ["Apple", "812", "62,040", "76", "1,193"]
        total = rows[-1]
        assert total[:5] == ["Total", "4,248", "248,015", "58", "1,133"]

    def test_empty_dataset(self):
        stats = DatasetStats(per_category=(), total=stats_row("Total", 0, 0, None, None))
        rows = parse_markdown(render_stats_table(stats))
        assert rows[-1][:5] == ["Total", "0", "0", "—", "—"]

    def test_single_category_total_matches_row(self):
        stats = DatasetStats(
            per_category=(stats_row("Apple", 3, 12, 4.0, 250.0, "X"),),
            total=stats_row("Total", 3, 12, 4.0, 250.0, "X"),
        )
        rows = parse_markdown(render_stats_table(stats))
        assert rows[1][1:] == rows[2][1:]

    def test_half_even_rounding(self):
        stats = DatasetStats(
            per_category=(stats_row("A", 2, 5, 2.5, 3.5),),
            total=stats_row("Total", 2, 5, 2.5, 3.5),
        )
        rows = parse_markdown(render_stats_table(stats))
        assert rows[1][3] == "2"  # 2.5 rounds half-to-even to 2
        assert rows[1][4] == "4"  # 3.5 rounds half-to-even to 4

    def test_csv_matches_markdown_content(self):
        md = parse_markdown(render_stats_table(FRUIT_STATS, "markdown"))
        csv_rows = [r.split(",") for r in render_stats_table(FRUIT_STATS, "csv").splitlines()]
        # csv quotes thousands-separated numbers; compare cell sets loosely
        assert len(md) == len(csv_rows)

    def test_json_carries_exact_ratios(self):
        payload = json.loads(render_stats_table(FRUIT_STATS, "json"))
        assert payload["categories"][0]["avg_bboxes_per_image"] == 62040 / 812

    def test_deterministic_bytes(self):
        assert render_stats_table(FRUIT_STATS) == render_stats_table(FRUIT_STATS)


def category_report(cat_id, name, m, a50, mar):
    return CategoryReport(
        category_id=cat_id,
        name=name,
        num_gt=10,
        num_detections=10,
        per_threshold_ap=(a50,) * 10,
        per_threshold_ar=(mar,) * 10,
        map=m,
        ap50=a50,
        mar=mar,
    )


def report_for(cells):
    rows = tuple(category_report(cid, name, m, a, r) for cid, name, m, a, r in cells)
    return EvaluationReport(
        per_category=rows,
        mean_ap=None,
        mean_ap50=None,
        mean_ar=None,
        iou_thresholds=(0.5,) * 10,
        max_dets=100,
        num_detections_used=10,
        num_detections_ignored=0,
        num_gt=10,
    )


class TestRenderMetricGrid:
    def test_fine_tuning_row_format(self):
        grid = ExperimentGrid(rows=(GridRow("fine-tuning", "m.json", "p.json"),))
        reports = {"fine-tuning": report_for([(1, "apple", 0.594, 0.941, 0.647)])}
        text, warnings = render_metric_grid(grid, reports)
        rows = parse_markdown(text)
        assert rows[0] == ["Setting", "apple mAP", "apple AP50", "apple mAR"]
        assert rows[1] == ["fine-tuning", "59.4", "94.1", "64.7"]
        assert warnings == 0

    def test_perfect_rows_all_100(self):
        grid = ExperimentGrid(
            rows=(GridRow("perfect", "m.json", "p.json"),),
        )
        reports = {
            "perfect": report_for(
                [(1, "apple", 1.0, 1.0, 1.0), (2, "orange", 1.0, 1.0, 1.0)]
            )
        }
        text, _ = render_metric_grid(grid, reports)
        cells = parse_markdown(text)[1][1:]
        assert cells == ["100.0"] * 6

    def test_missing_cell_rendered_with_warning(self):
        grid = ExperimentGrid(
            rows=(GridRow("a", "m.json", "p.json"), GridRow("b", "m.json", "p.json")),
            metrics=("mAP",),
        )
        reports = {"a": report_for([(1, "apple", 0.5, 0.6, 0.7)])}
        text, warnings = render_metric_grid(grid, reports)
        rows = parse_markdown(text)
        assert rows[2] == ["b", "—"]
        assert warnings == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentGrid(rows=(GridRow("a", "m", "p"), GridRow("a", "m", "p")))

    def test_repeated_metric_rejected(self):
        """A metric listed twice would get its columns twice in markdown and
        CSV but one key in JSON."""
        with pytest.raises(ValidationError, match="^metric 'mAP' is listed twice$"):
            ExperimentGrid(rows=(GridRow("a", "m", "p"),), metrics=("mAP", "AP50", "mAP"))

    def test_csv_and_markdown_numeric_content_match(self):
        grid_md = ExperimentGrid(rows=(GridRow("x", "m", "p"),), output_format="markdown")
        grid_csv = ExperimentGrid(rows=(GridRow("x", "m", "p"),), output_format="csv")
        reports = {"x": report_for([(1, "apple", 0.333, 0.444, 0.555)])}
        md_cells = parse_markdown(render_metric_grid(grid_md, reports)[0])
        csv_cells = [
            r.split(",") for r in render_metric_grid(grid_csv, reports)[0].splitlines()
        ]
        assert md_cells[1] == csv_cells[1]

    def test_json_format(self):
        grid = ExperimentGrid(rows=(GridRow("x", "m", "p"),), output_format="json")
        reports = {"x": report_for([(1, "apple", 0.2, 0.3, 0.4)])}
        text, warnings = render_metric_grid(grid, reports)
        payload = json.loads(text)
        assert payload["rows"][0]["cells"]["apple"]["mAP"] == 0.2
        assert warnings == 0


class TestSummarizeTiming:
    def test_fast_detector_row(self):
        records = [TimingRecord("baseline-a", (45.7,) * 20)]
        rows = parse_markdown(summarize_timing(records))
        assert rows[1] == ["baseline-a", "21.9", "45.7"]

    def test_slow_detector_row(self):
        records = [TimingRecord("foundation-t", (181.8,) * 20)]
        rows = parse_markdown(summarize_timing(records))
        assert rows[1] == ["foundation-t", "5.5", "181.8"]

    def test_reciprocal_identity(self):
        records = [TimingRecord("one-second", (1000.0,) * 3)]
        rows = parse_markdown(summarize_timing(records))
        assert rows[1] == ["one-second", "1.0", "1000.0"]

    def test_fps_latency_consistency(self):
        for mean in (18.8, 49.5, 52.9, 256.4, 333.3):
            records = [TimingRecord("m", (mean,) * 5)]
            rows = parse_markdown(summarize_timing(records))
            fps = float(rows[1][1])
            latency = float(rows[1][2])
            assert fps * latency == pytest.approx(1000.0, rel=0.02)

    def test_empty_latencies_rejected(self):
        with pytest.raises(ValidationError):
            TimingRecord("m", ())

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValidationError):
            TimingRecord("m", (5.0, 0.0))


class TestLoadTimingLog:
    def test_grouping(self, tmp_path):
        path = tmp_path / "lat.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"model": "a", "image_id": 1, "latency_ms": 10.0}),
                    json.dumps({"model": "b", "image_id": 1, "latency_ms": 20.0}),
                    json.dumps({"model": "a", "image_id": 2, "latency_ms": 30.0}),
                ]
            )
        )
        records = load_timing_log(path)
        assert [r.model for r in records] == ["a", "b"]
        assert records[0].latencies_ms == (10.0, 30.0)
        assert records[0].mean_ms == 20.0

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_lines_split_on_newlines_only(self, tmp_path, separator):
        """JSON strings may hold separators that are not newlines."""
        path = tmp_path / "lat.jsonl"
        record = {"model": f"a{separator}b", "image_id": 1, "latency_ms": 10.0}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\r\n\n", encoding="utf-8")
        assert [r.model for r in load_timing_log(path)] == [f"a{separator}b"]

    def test_bad_record(self, tmp_path):
        path = tmp_path / "lat.jsonl"
        path.write_text(json.dumps({"model": "a"}))
        with pytest.raises(ValidationError):
            load_timing_log(path)
