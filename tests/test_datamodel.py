import gc
import json
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fruitbench.datamodel import (
    Category,
    DetectionDataset,
    Detection,
    GroundTruthInstance,
    ImageRecord,
    PredictionTable,
    compute_stats,
    load_coco,
    load_labelme,
    load_predictions,
    write_coco,
)
from fruitbench.errors import FruitBenchError, IntegrityError, ParseError, ValidationError
from fruitbench.geometry import BoundingBox

from . import oracles
from .generators import random_eval_instance, table_of


def minimal_coco(tmp_path, **overrides):
    payload = {
        "images": [{"id": 1, "file_name": "a.jpg", "width": 100, "height": 80}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "iscrowd": 0}
        ],
        "categories": [{"id": 1, "name": "apple"}],
    }
    payload.update(overrides)
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadCoco:
    def test_minimal_counts(self, tmp_path):
        ds, clamped = load_coco(minimal_coco(tmp_path))
        assert (len(ds.images), len(ds.instances), len(ds.categories)) == (1, 1, 1)
        assert clamped == 0
        assert ds.instances[0].box == BoundingBox(10, 10, 30, 30)

    def test_dangling_image_reference(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 99, "category_id": 1, "bbox": [0, 0, 1, 1], "iscrowd": 0}
            ],
        )
        with pytest.raises(IntegrityError, match="image 99"):
            load_coco(path)

    def test_dangling_category_reference(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 7, "bbox": [0, 0, 1, 1], "iscrowd": 0}
            ],
        )
        with pytest.raises(IntegrityError, match="category 7"):
            load_coco(path)

    def test_malformed_json_reports_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"images": [}')
        with pytest.raises(ParseError, match="byte offset"):
            load_coco(path)

    def test_negative_dimensions(self, tmp_path):
        path = minimal_coco(
            tmp_path, images=[{"id": 1, "file_name": "a.jpg", "width": -5, "height": 80}]
        )
        with pytest.raises(ValidationError):
            load_coco(path)

    def test_out_of_image_boxes_clamped(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            annotations=[
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [90, 70, 30, 30], "iscrowd": 0}
            ],
        )
        ds, clamped = load_coco(path)
        assert clamped == 1
        assert ds.instances[0].box == BoundingBox(90, 70, 100, 80)

    def test_order_insensitive(self, tmp_path):
        anns = [
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [5, 5, 10, 10], "iscrowd": 0},
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "iscrowd": 0},
        ]
        ds_a, _ = load_coco(minimal_coco(tmp_path, annotations=anns))
        ds_b, _ = load_coco(minimal_coco(tmp_path, annotations=list(reversed(anns))))
        assert ds_a == ds_b


    @pytest.mark.parametrize("ann_id", [0, -3])
    def test_non_positive_annotation_id(self, tmp_path, ann_id):
        path = minimal_coco(
            tmp_path,
            annotations=[{"id": ann_id, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}],
        )
        message = f"^instance id must be a positive integer, got {ann_id}$"
        with pytest.raises(ValidationError, match=message):
            load_coco(path)

    @pytest.mark.parametrize("bbox", [None, "abcd", [0, 0, 1], [True, 0, 1, 1]])
    def test_malformed_bbox_rejected(self, tmp_path, bbox):
        path = minimal_coco(
            tmp_path,
            annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": bbox, "iscrowd": 0}],
        )
        with pytest.raises(ValidationError, match="box"):
            load_coco(path)

    @pytest.mark.parametrize(
        "section, field", [
            ("categories", "id"),
            ("images", "id"),
            ("images", "width"),
            ("annotations", "id"),
            ("annotations", "image_id"),
            ("annotations", "category_id"),
        ],
    )
    def test_boolean_ids_rejected(self, tmp_path, section, field):
        payload = json.loads(minimal_coco(tmp_path).read_text())
        payload[section][0][field] = True
        path = tmp_path / "booleans.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=field):
            load_coco(path)

    @pytest.mark.parametrize(
        "section, field, value", [
            ("annotations", "image_id", [1]),
            ("annotations", "image_id", 1.0),
            ("annotations", "category_id", {}),
            ("annotations", "iscrowd", "0"),
            ("annotations", "iscrowd", 2),
            ("annotations", "iscrowd", None),
            ("images", "region", 5),
            ("images", "region", ["North"]),
        ],
    )
    def test_mistyped_fields_rejected(self, tmp_path, section, field, value):
        payload = json.loads(minimal_coco(tmp_path).read_text())
        payload[section][0][field] = value
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=field):
            load_coco(path)

    @pytest.mark.parametrize("value, crowd", [(0, False), (1, True), (False, False), (True, True)])
    def test_iscrowd_values(self, tmp_path, value, crowd):
        payload = json.loads(minimal_coco(tmp_path).read_text())
        payload["annotations"][0]["iscrowd"] = value
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps(payload))
        ds, _ = load_coco(path)
        assert ds.instances[0].iscrowd is crowd


class TestDatasetValidation:
    def test_duplicate_category_ids(self):
        with pytest.raises(ValidationError):
            DetectionDataset(
                categories=[Category(1, "apple"), Category(1, "orange")], images=[], instances=[]
            )

    def test_case_insensitive_name_collision(self):
        with pytest.raises(ValidationError):
            DetectionDataset(
                categories=[Category(1, "Apple"), Category(2, "apple")], images=[], instances=[]
            )

    def test_box_outside_image_rejected(self):
        with pytest.raises(ValidationError):
            DetectionDataset(
                categories=[Category(1, "apple")],
                images=[ImageRecord(1, "a.jpg", 10, 10)],
                instances=[
                    GroundTruthInstance(1, 1, 1, BoundingBox(0, 0, 11, 5)),
                ],
            )

    @pytest.mark.parametrize("ann_id", [0, -3])
    def test_non_positive_instance_id(self, ann_id):
        message = f"^instance id must be a positive integer, got {ann_id}$"
        with pytest.raises(ValidationError, match=message):
            DetectionDataset(
                [Category(1, "apple")], [ImageRecord(1, "a.jpg", 10, 10)],
                [GroundTruthInstance(ann_id, 1, 1, BoundingBox(0, 0, 1, 1))],
            )

    @pytest.mark.parametrize("images", [[], [ImageRecord(1, "a.jpg", 10, 10)]])
    @pytest.mark.parametrize("build", ["instances", "columns"])
    def test_unknown_image_with_box_past_origin(self, build, images):
        """A row of an unknown image is never clamped or bounds-checked
        against some other image: it raises as unknown."""
        categories, box = [Category(1, "apple")], BoundingBox(-1, 0, 1, 1)
        with pytest.raises(IntegrityError, match="^instance 1 references unknown image 5$"):
            if build == "instances":
                DetectionDataset(categories, images, [GroundTruthInstance(1, 5, 1, box)])
            else:
                DetectionDataset.from_columns(
                    categories, images, [1], [5], [1], np.array([[-1.0, 0.0, 1.0, 1.0]]),
                    [False], [None],
                )

    @pytest.mark.parametrize("width, x_max", [
        (2**53 + 3, 2**53 + 3), (2**54 + 1, 2**54 + 1), (2**54 + 1, 2**54 + 2), (10**400, 2**60),
    ])
    def test_bounds_are_exact_past_2_53(self, width, x_max):
        """Integer sizes and corners are compared exactly, not as the
        floats they round to."""
        def build():
            return DetectionDataset(
                [Category(1, "apple")], [ImageRecord(1, "a.jpg", width, 10)],
                [GroundTruthInstance(1, 1, 1, BoundingBox(0, 0, x_max, 5))],
            )

        if x_max > width:
            with pytest.raises(ValidationError, match="exceeds image 1 bounds"):
                build()
        else:
            assert len(build().instances) == 1


def labelme_file(tmp_path, name, shapes, width=100, height=80):
    payload = {
        "imagePath": name.replace(".json", ".jpg"),
        "imageWidth": width,
        "imageHeight": height,
        "shapes": shapes,
    }
    (tmp_path / name).write_text(json.dumps(payload))


class TestLoadLabelme:
    def test_one_rectangle(self, tmp_path):
        labelme_file(
            tmp_path,
            "img1.json",
            [{"label": "apple", "points": [[10, 10], [30, 30]], "shape_type": "rectangle"}],
        )
        ds, unmapped = load_labelme(tmp_path, {"apple": Category(1, "apple")})
        assert len(ds.instances) == 1
        assert ds.instances[0].category_id == 1
        assert unmapped == {}

    def test_polygon_reduced_to_bounding_box(self, tmp_path):
        labelme_file(
            tmp_path,
            "img1.json",
            [
                {
                    "label": "apple",
                    "points": [[1, 1], [4, 1], [4, 3], [1, 3]],
                    "shape_type": "polygon",
                }
            ],
        )
        ds, _ = load_labelme(tmp_path, {"apple": Category(1, "apple")})
        assert ds.instances[0].box == BoundingBox(1, 1, 4, 3)

    def test_label_with_trailing_space_is_unmapped(self, tmp_path):
        labelme_file(
            tmp_path,
            "img1.json",
            [{"label": "Apple ", "points": [[0, 0], [5, 5]], "shape_type": "rectangle"}],
        )
        ds, unmapped = load_labelme(tmp_path, {"apple": Category(1, "apple")})
        assert len(ds.instances) == 0
        assert unmapped == {"Apple ": 1}

    def test_map_keys_are_canonicalized(self, tmp_path):
        labelme_file(
            tmp_path,
            "img1.json",
            [{"label": "apple", "points": [[0, 0], [5, 5]], "shape_type": "rectangle"}],
        )
        ds, unmapped = load_labelme(tmp_path, {" Apple ": Category(1, "apple")})
        assert len(ds.instances) == 1
        assert unmapped == {}

    def test_synonyms_share_one_category(self, tmp_path):
        shapes = [
            {"label": label, "points": [[0, 0], [5, 5]]} for label in ("apple", "malus", "pear")
        ]
        labelme_file(tmp_path, "img1.json", shapes)
        apple = Category(1, "apple")
        ds, _ = load_labelme(
            tmp_path, {"apple": apple, "malus": Category(1, "apple"), "pear": Category(2, "pear")}
        )
        assert ds.categories == [apple, Category(2, "pear")]
        assert [a.category_id for a in ds.instances] == [1, 1, 2]

    def test_two_categories_sharing_an_id_rejected(self, tmp_path):
        labelme_file(tmp_path, "img1.json", [{"label": "apple", "points": [[0, 0], [5, 5]]}])
        with pytest.raises(ValidationError, match="^duplicate category id 1$"):
            load_labelme(tmp_path, {"apple": Category(1, "apple"), "pear": Category(1, "pear")})

    def test_shape_with_one_point(self, tmp_path):
        labelme_file(
            tmp_path, "img1.json", [{"label": "apple", "points": [[0, 0]], "shape_type": "point"}]
        )
        with pytest.raises(ValidationError, match="fewer than 2 points"):
            load_labelme(tmp_path, {"apple": Category(1, "apple")})

    def test_corner_coordinates_preserved_through_coco(self, tmp_path):
        labelme_file(
            tmp_path,
            "img1.json",
            [{"label": "apple", "points": [[12.5, 7.25], [40.75, 33.5]], "shape_type": "rectangle"}],
        )
        ds, _ = load_labelme(tmp_path, {"apple": Category(1, "apple")})
        out = tmp_path / "out.json"
        write_coco(ds, out)
        reloaded, _ = load_coco(out)
        assert reloaded.instances[0].box == BoundingBox(12.5, 7.25, 40.75, 33.5)


datasets = st.builds(
    lambda n_cats, boxes: _make_dataset(n_cats, boxes),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.integers(0, 2),  # image index
            st.integers(0, 2),  # category index (clipped)
            st.integers(0, 50),
            st.integers(0, 50),
            st.integers(1, 40),
            st.integers(1, 40),
            st.booleans(),
        ),
        max_size=12,
    ),
)


def _make_dataset(n_cats, raw_boxes):
    categories = [Category(i + 1, f"cat{i + 1}") for i in range(n_cats)]
    images = [ImageRecord(i + 1, f"img{i + 1}.jpg", 100, 100, region="R1") for i in range(3)]
    instances = []
    for k, (img, cat, x, y, w, h, crowd) in enumerate(raw_boxes):
        box = BoundingBox(x, y, min(x + w, 100), min(y + h, 100))
        instances.append(
            GroundTruthInstance(
                id=k + 1,
                image_id=img + 1,
                category_id=(cat % n_cats) + 1,
                box=box,
                attributes={"occlusion": "leaf"} if crowd else {},
                iscrowd=crowd,
            )
        )
    return DetectionDataset(categories, images, instances)


ID_FIELDS = ("category", "image", "width", "instance", "image_id", "category_id")


class TestWriteCoco:
    def test_empty_dataset(self, tmp_path):
        ds = DetectionDataset([], [], [])
        out = tmp_path / "empty.json"
        write_coco(ds, out)
        payload = json.loads(out.read_text())
        assert payload == {"images": [], "annotations": [], "categories": []}
        reloaded, _ = load_coco(out)
        assert reloaded == ds

    @given(ds=datasets)
    def test_roundtrip(self, tmp_path_factory, ds):
        out = tmp_path_factory.mktemp("rt") / "ds.json"
        write_coco(ds, out)
        reloaded, clamped = load_coco(out)
        assert clamped == 0
        assert reloaded == ds

    def test_attributes_preserved(self, tmp_path):
        ds = DetectionDataset(
            categories=[Category(1, "apple")],
            images=[ImageRecord(1, "a.jpg", 50, 50)],
            instances=[
                GroundTruthInstance(
                    1, 1, 1, BoundingBox(0, 0, 10, 10), attributes={"occlusion": "branch"}
                )
            ],
        )
        out = tmp_path / "ds.json"
        write_coco(ds, out)
        assert json.loads(out.read_text())["annotations"][0]["attributes"] == {
            "occlusion": "branch"
        }
        reloaded, _ = load_coco(out)
        assert reloaded == ds

    @pytest.mark.parametrize("value", [1, True])
    @pytest.mark.parametrize("where", ID_FIELDS)
    def test_what_the_types_accept_loads_back(self, tmp_path, where, value):
        """The types take an id or a size only where ``write_coco`` writes
        what ``load_coco`` reads back: a boolean, which JSON writes as
        ``true``, is rejected when the dataset is built."""
        ids = {**dict.fromkeys(ID_FIELDS, 1), where: value}
        try:
            ds = DetectionDataset(
                categories=[Category(ids["category"], "apple")],
                images=[ImageRecord(ids["image"], "a.jpg", ids["width"], 50)],
                instances=[
                    GroundTruthInstance(
                        ids["instance"], ids["image_id"], ids["category_id"],
                        BoundingBox(0, 0, 1, 1),
                    )
                ],
            )
        except ValidationError:
            assert value is True
            return
        out = tmp_path / "ds.json"
        write_coco(ds, out)
        assert load_coco(out)[0] == ds


class TestLoadPredictions:
    def test_empty_array(self, tmp_path):
        ds, _ = load_coco(minimal_coco(tmp_path))
        path = tmp_path / "preds.json"
        path.write_text("[]")
        assert list(load_predictions(path, ds)) == []

    def test_score_out_of_range(self, tmp_path):
        ds, _ = load_coco(minimal_coco(tmp_path))
        path = tmp_path / "preds.json"
        path.write_text(
            json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.2}])
        )
        with pytest.raises(ValidationError, match="score"):
            load_predictions(path, ds)

    def test_box_error_names_its_record(self, tmp_path):
        ds, _ = load_coco(minimal_coco(tmp_path))
        path = tmp_path / "preds.json"
        record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
        path.write_text(json.dumps([record, {**record, "bbox": [1, 1, "x", 2]}]))
        message = r"^detection #1: expected a list of 4 box numbers, got \[1, 1, 'x', 2\]$"
        with pytest.raises(ValidationError, match=message):
            load_predictions(path, ds)

    def test_dangling_reference(self, tmp_path):
        ds, _ = load_coco(minimal_coco(tmp_path))
        path = tmp_path / "preds.json"
        path.write_text(
            json.dumps([{"image_id": 3, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}])
        )
        with pytest.raises(IntegrityError, match="image 3"):
            load_predictions(path, ds)

    @pytest.mark.parametrize("bbox", [None, "abcd", [0, 0, 1], [True, 0, 1, 1]])
    def test_malformed_bbox_rejected(self, tmp_path, bbox):
        ds, _ = load_coco(minimal_coco(tmp_path))
        path = tmp_path / "preds.json"
        path.write_text(
            json.dumps([{"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.5}])
        )
        with pytest.raises(ValidationError, match="box"):
            load_predictions(path, ds)

    @pytest.mark.parametrize("field", ["image_id", "category_id", "score"])
    def test_boolean_fields_rejected(self, tmp_path, field):
        ds, _ = load_coco(minimal_coco(tmp_path))
        record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
        record[field] = True
        path = tmp_path / "preds.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ValidationError, match=field):
            load_predictions(path, ds)

    @pytest.mark.parametrize(
        "field, value", [("image_id", [1]), ("image_id", 1.0), ("category_id", {}), ("prompt", [1])]
    )
    def test_mistyped_fields_rejected(self, tmp_path, field, value):
        ds, _ = load_coco(minimal_coco(tmp_path))
        record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
        record[field] = value
        path = tmp_path / "preds.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ValidationError, match=field):
            load_predictions(path, ds)

    def test_grouping_by_image(self, tmp_path):
        path = minimal_coco(
            tmp_path,
            images=[
                {"id": 1, "file_name": "a.jpg", "width": 100, "height": 80},
                {"id": 2, "file_name": "b.jpg", "width": 100, "height": 80},
            ],
        )
        ds, _ = load_coco(path)
        preds = tmp_path / "preds.json"
        preds.write_text(
            json.dumps(
                [
                    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.9},
                    {"image_id": 2, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.8},
                    {"image_id": 1, "category_id": 1, "bbox": [5, 5, 5, 5], "score": 0.7},
                ]
            )
        )
        dets = load_predictions(preds, ds)
        assert len(dets) == 3
        assert sum(1 for d in dets if d.image_id == 1) == 2
        assert all(isinstance(d, Detection) for d in dets)


BIG_ID = 2**70  # past int64: positions, not ids, go into the arrays
PREDICTION_DS = DetectionDataset(
    [Category(1, "apple"), Category(3, "lemon")],
    [ImageRecord(i, f"{i}.jpg", 64, 64) for i in (1, 2, BIG_ID)],
    [],
)
# Box values and scores of every size: any finite float, -0.0, and ints
# past 2**53 and far past int64.
COORDINATES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**80), 2**80)
    | st.sampled_from([-0.0, 2**53 + 1, 2**100, 10**300])
)
SIZES = (
    st.floats(min_value=0.0, allow_infinity=False)
    | st.integers(0, 2**80)
    | st.sampled_from([-0.0, 2**53 + 1, 10**300])
)
SCORES = st.floats(0.0, 1.0) | st.sampled_from([0, 1, -0.0, 5e-324, 1 - 2**-53])
PROMPTS = st.none() | st.text(st.characters(max_codepoint=127), max_size=3) | st.text(max_size=3)
# Values that break a record: mistyped, boolean, unknown ids, ints past the
# float range, negative sizes, x + w past the float range, non-finite
# values, scores just outside [0, 1] and lone surrogates.
BROKEN = {
    "image_id": [True, False, 1.0, "1", None, [1], {}, 99, BIG_ID + 1, 0],
    "category_id": [True, 2, 1.5, "3", None, 2**70],
    "bbox": [
        None, "abcd", {}, [0, 0, 1], [0, 0, 1, 1, 1], [True, 0, 1, 1], [0, 0, False, 1],
        [0, "0", 1, 1], [0, 0, 1, None], [[0], 0, 1, 1], [0, 0, -1, 1], [0, 0, 1, -5e-324],
        [1.7e308, 0, 1.7e308, 1], [0, 1e308, 1, 1e308], [10**400, 0, 1, 1],
        [0, 0, -(10**400), 1], [math.nan, 0, 1, 1], [0, 0, math.inf, 1], [-math.inf, 0, 1, 1],
    ],
    "score": [
        True, False, None, "0.5", [0.5], -5e-324, 1 + 2**-52, -1, 2, 2**64, 10**400,
        math.nan, math.inf,
    ],
    "prompt": [1, True, [], {}, 0.5, "\ud800", "a\udfffb"],
}
FAULTS = (
    [("missing", key, None) for key in ("image_id", "category_id", "bbox", "score")]
    + [("value", key, value) for key, values in BROKEN.items() for value in values]
    + [("record", None, value) for value in (5, "x", [1, 2, 3, 4], None, True, 1.5)]
)


@st.composite
def prediction_records(draw):
    record = {
        "image_id": draw(st.sampled_from([1, 2, BIG_ID])),
        "category_id": draw(st.sampled_from([1, 3])),
        "bbox": [draw(COORDINATES), draw(COORDINATES), draw(SIZES), draw(SIZES)],
        "score": draw(SCORES),
    }
    if draw(st.booleans()):
        record["prompt"] = draw(PROMPTS)
    return record


def _broken(record, fault):
    kind, key, value = fault
    if kind == "record":
        return value
    record = dict(record)
    if kind == "missing":
        del record[key]
    else:
        record[key] = value
    return record


@st.composite
def prediction_files(draw):
    """Valid records with up to two broken ones among them."""
    records = draw(st.lists(prediction_records(), max_size=6))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        at = draw(st.integers(0, len(records)))
        records.insert(at, _broken(draw(prediction_records()), draw(st.sampled_from(FAULTS))))
    return records


def _fields(image_ids, category_ids, boxes, scores, prompts):
    return [
        (
            image_id.__class__, image_id, category_id.__class__, category_id,
            tuple(map(float.hex, box)), float.hex(score), prompt,
        )
        for image_id, category_id, box, score, prompt in zip(
            image_ids, category_ids, boxes, scores, prompts
        )
    ]


def _outcomes(path):
    """What the scalar reader, the table's columns and its views hold, or
    the error each raises."""
    outcomes = []
    for read in (oracles.scalar_load_predictions, load_predictions):
        try:
            dets = read(path, PREDICTION_DS)
        except FruitBenchError as exc:
            outcomes += [(type(exc), str(exc))] * (1 + (read is load_predictions))
            continue
        if read is load_predictions:
            outcomes.append(
                _fields(
                    [PREDICTION_DS.images[k].id for k in dets.image.tolist()],
                    [PREDICTION_DS.categories[k].id for k in dets.category.tolist()],
                    dets.boxes.tolist(), dets.score.tolist(), dets.prompt,
                )
            )
        outcomes.append(
            _fields(
                [d.image_id for d in dets], [d.category_id for d in dets],
                [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets],
                [d.score for d in dets], [d.prompt for d in dets],
            )
        )
    return outcomes


class TestReadPredictions:
    """``load_predictions`` against ``oracles.scalar_load_predictions``: its
    columns and its views equal the scalar reader's detections bit for
    bit, or both raise the same error class with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(
        records=prediction_files(),
        top_level=st.sampled_from(["array"] * 12 + ["object", "number", "null"]),
    )
    def test_agrees_with_the_scalar_reader(self, tmp_path_factory, records, top_level):
        payload = {"array": records, "object": {"predictions": records}, "number": 5}.get(
            top_level
        )
        path = tmp_path_factory.getbasetemp() / "predictions.json"
        path.write_text(json.dumps(payload))
        expected, *got = _outcomes(path)
        assert got == [expected, expected]

    @pytest.mark.parametrize("fault", FAULTS, ids=repr)
    def test_each_fault_agrees(self, tmp_path, fault):
        valid = {"image_id": 2, "category_id": 3, "bbox": [1, 2.5, 3, 4], "score": 0.5}
        path = tmp_path / "predictions.json"
        path.write_text(json.dumps([valid, _broken(valid, fault), valid]))
        expected, *got = _outcomes(path)
        assert got == [expected, expected]
        assert expected[0] in (ParseError, ValidationError, IntegrityError)

    def test_sequence_of_views(self, tmp_path):
        path = tmp_path / "predictions.json"
        records = [
            {"image_id": BIG_ID, "category_id": 3, "bbox": [1, 2, 3, 4], "score": 1, "prompt": ""},
            {"image_id": 1, "category_id": 1, "bbox": [0.5, 0, 0, 2**60], "score": 0.25},
        ]
        path.write_text(json.dumps(records))
        table = load_predictions(path, PREDICTION_DS)
        assert isinstance(table, PredictionTable) and len(table) == 2
        assert table.image.tolist() == [2, 0] and table.category.tolist() == [1, 0]
        assert table.boxes.tolist() == [[1.0, 2.0, 4.0, 6.0], [0.5, 0.0, 0.5, 2.0**60]]
        assert table[-1] == Detection(1, 1, BoundingBox(0.5, 0.0, 0.5, 2.0**60), 0.25)
        assert list(table) == [table[0], table[1]] == oracles.scalar_load_predictions(
            path, PREDICTION_DS
        )
        with pytest.raises(IndexError):
            table[2]
        with pytest.raises(ValueError):
            table.score[0] = 0.5  # read-only columns
        assert table_of(PREDICTION_DS, table).boxes.tobytes() == table.boxes.tobytes()


ROWS = 7


@pytest.fixture(scope="module")
def seven_rows(tmp_path_factory):
    """A table of seven distinct detections, with and without prompts."""
    path = tmp_path_factory.mktemp("rows") / "predictions.json"
    path.write_text(json.dumps([
        {
            "image_id": (1, 2, BIG_ID)[k % 3], "category_id": (1, 3)[k % 2],
            "bbox": [k, 2 * k, 3, 4.5], "score": k / 10, **({"prompt": f"p{k}"} if k % 2 else {}),
        }
        for k in range(ROWS)
    ]))
    return load_predictions(path, PREDICTION_DS)


class TestPredictionTableRows:
    """An int gives that row's view; nothing else indexes a table."""

    def test_out_of_range_rows_raise_index_error(self, seven_rows):
        for index in (ROWS, -ROWS - 1):
            with pytest.raises(IndexError):
                seven_rows[index]

    def test_slices_and_arrays_raise_type_error(self, seven_rows):
        for index in (slice(0, 1), slice(None), np.array([0], dtype=np.int64), 1.0):
            with pytest.raises(TypeError):
                seven_rows[index]


@st.composite
def shuffled_datasets(draw):
    """A ``tests.generators`` dataset rebuilt with sparse image and
    instance ids given out of order, so an image's rows are not a run of
    ids, plus an image without instances."""
    ds, _ = random_eval_instance(random.Random(draw(st.integers(0, 2**32))), max_gts=14)
    rng = random.Random(draw(st.integers(0, 2**32)))
    image_ids = dict(zip((m.id for m in ds.images), rng.sample(range(1, 60), len(ds.images))))
    instance_ids = rng.sample(range(1, 500), len(ds.instances))
    images = [replace(m, id=image_ids[m.id]) for m in ds.images]
    images.append(ImageRecord(max(image_ids.values()) + 1, "empty.jpg", 32, 32))
    instances = [
        replace(a, id=k, image_id=image_ids[a.image_id]) for a, k in zip(ds.instances, instance_ids)
    ]
    rng.shuffle(instances)
    return DetectionDataset(ds.categories, images, instances)


COLUMNS = ("gt_image", "gt_category", "gt_boxes", "gt_crowd", "gt_by_image", "gt_offsets")


class TestGroundTruthColumns:
    @settings(max_examples=150, deadline=None)
    @given(ds=shuffled_datasets())
    def test_columns_hold_the_instance_fields(self, ds):
        assert [c.dtype for c in (ds.gt_image, ds.gt_category, ds.gt_crowd)] == [
            np.int64, np.int64, np.bool_,
        ]
        assert ds.gt_boxes.shape == (len(ds.instances), 4) and ds.gt_boxes.dtype == np.float64
        for k, a in enumerate(ds.instances):
            assert ds.images[ds.gt_image[k]].id == a.image_id
            assert ds.categories[ds.gt_category[k]].id == a.category_id
            assert ds.gt_crowd[k] == a.iscrowd
            corners = (a.box.x_min, a.box.y_min, a.box.x_max, a.box.y_max)
            assert list(map(float.hex, ds.gt_boxes[k].tolist())) == [
                float.hex(float(v)) for v in corners
            ]

    @settings(max_examples=150, deadline=None)
    @given(ds=shuffled_datasets())
    def test_ranges_are_the_instances_of_each_image(self, ds):
        for position, image in enumerate(ds.images):
            expected = tuple(a for a in ds.instances if a.image_id == image.id)
            assert ds.instances_for_image(image.id) == expected
            assert [ds.instances[k] for k in ds.gt_rows(position).tolist()] == list(expected)
        assert ds.gt_offsets.tolist()[-1] == len(ds.instances)
        assert ds.instances_for_image(0) == ()
        assert ds.instances_for_image(1000) == ()

    def test_attribute_maps_are_read_only_and_shared_when_empty(self):
        box = BoundingBox(0, 0, 1, 1)
        ds = DetectionDataset([Category(1, "apple")], [ImageRecord(1, "a.jpg", 9, 9)], [
            GroundTruthInstance(2, 1, 1, box, {"occlusion": "leaf"}),
            GroundTruthInstance(3, 1, 1, box),
            GroundTruthInstance(1, 1, 1, box),
        ])
        assert [dict(m) for m in ds.gt_attributes] == [{}, {"occlusion": "leaf"}, {}]
        assert ds.gt_attributes[0] is ds.gt_attributes[2]
        with pytest.raises(TypeError):
            ds.gt_attributes[1]["occlusion"] = "none"
        assert ds.instances[1].attributes == {"occlusion": "leaf"}

    def test_columns_are_read_only(self):
        ds, _ = random_eval_instance(random.Random(5))
        for name in COLUMNS:
            column = getattr(ds, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    def test_columns_do_not_enter_equality_or_repr(self):
        ds, _ = random_eval_instance(random.Random(6))
        again = DetectionDataset(list(ds.categories), list(ds.images), list(ds.instances))
        assert again == ds and "gt_" not in repr(ds)

    def test_empty_dataset(self):
        ds = DetectionDataset([], [ImageRecord(1, "a.jpg", 4, 4)], [])
        assert ds.gt_boxes.shape == (0, 4) and ds.gt_offsets.tolist() == [0, 0]
        assert ds.instances_for_image(1) == ()


class TestComputeStats:
    def test_hand_mean(self):
        ds = DetectionDataset(
            categories=[Category(1, "apple")],
            images=[ImageRecord(1, "a.jpg", 100, 100), ImageRecord(2, "b.jpg", 100, 100)],
            instances=[
                GroundTruthInstance(1, 1, 1, BoundingBox(0, 0, 10, 10)),  # area 100
                GroundTruthInstance(2, 2, 1, BoundingBox(0, 0, 20, 15)),  # area 300
            ],
        )
        stats = compute_stats(ds)
        row = stats.per_category[0]
        assert row.image_count == 2
        assert row.bbox_count == 2
        assert row.avg_boxes_per_image == 1.0
        assert row.avg_instance_area == 200.0
        assert stats.total.bbox_count == 2

    def test_empty_category_reports_absent_averages(self):
        ds = DetectionDataset(
            categories=[Category(1, "apple"), Category(2, "orange")],
            images=[ImageRecord(1, "a.jpg", 100, 100)],
            instances=[GroundTruthInstance(1, 1, 1, BoundingBox(0, 0, 10, 10))],
        )
        stats = compute_stats(ds)
        orange = stats.per_category[1]
        assert orange.bbox_count == 0
        assert orange.avg_boxes_per_image is None
        assert orange.avg_instance_area is None

    @given(datasets)
    def test_count_conservation(self, ds):
        stats = compute_stats(ds)
        assert sum(r.bbox_count for r in stats.per_category) == stats.total.bbox_count
        assert stats.total.bbox_count == len(ds.instances)

    def test_region_union(self):
        ds = DetectionDataset(
            categories=[Category(1, "apple")],
            images=[
                ImageRecord(1, "a.jpg", 10, 10, region="Michigan"),
                ImageRecord(2, "b.jpg", 10, 10, region="California"),
            ],
            instances=[
                GroundTruthInstance(1, 1, 1, BoundingBox(0, 0, 5, 5)),
                GroundTruthInstance(2, 2, 1, BoundingBox(0, 0, 5, 5)),
            ],
        )
        stats = compute_stats(ds)
        assert stats.per_category[0].region == "California & Michigan"


ANNOTATION_CATEGORIES = [{"id": 1, "name": "apple"}, {"id": 3, "name": "lemon"}]
# Sizes past 2**53, where a float bound is not the integer size, and past
# the float range.
ANNOTATION_IMAGES = [
    {"id": 1, "file_name": "a.jpg", "width": 64, "height": 48},
    {"id": 2, "file_name": "b.jpg", "width": 2**53 + 3, "height": 2**60 + 5, "region": "North"},
    {"id": BIG_ID, "file_name": "c.jpg", "width": 10**400, "height": 7, "region": None},
]
# Corners inside, on and past every image side, -0.0 and ints past 2**53.
CORNERS = st.floats(-80, 200) | st.sampled_from(
    [0, -0.0, -1, 47.75, 64, 2**53, 2**53 + 3, 2**60 + 1, -(2**60), 1e300]
)
EXTENTS = st.floats(0, 120) | st.sampled_from([0, -0.0, 1, 8, 2**53 + 8, 2**61, 1e300])
ANNOTATION_IDS = st.integers(1, 60) | st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, BIG_ID])
ANNOTATION_BROKEN = {
    "id": [True, 0, -1, 1.5, "1", None, [1]],
    "image_id": [True, 99, BIG_ID + 1, 1.0, None],
    "category_id": [2, False, "3", None, 2**64],
    "bbox": BROKEN["bbox"],
    "iscrowd": [None, 2, -1, "0", 1.0, [0]],
    "attributes": [
        None, [], "leaf", 5, {"occlusion": None}, {"occlusion": 5}, {"occlusion": "\ud800"},
        {"occlusion": ["leaf"]}, {"occlusion": {}},
    ],
}
ANNOTATION_FAULTS = (
    [("missing", key, None) for key in ("id", "image_id", "category_id", "bbox")]
    + [("value", key, value) for key, values in ANNOTATION_BROKEN.items() for value in values]
    + [("record", None, value) for value in (5, "x", [1, 2, 3, 4], None, True)]
    + [("duplicate", None, None)]
)


@st.composite
def annotation_records(draw, ids):
    record = {
        "id": draw(ids),
        "image_id": draw(st.sampled_from([1, 2, BIG_ID])),
        "category_id": draw(st.sampled_from([1, 3])),
        "bbox": [draw(CORNERS), draw(CORNERS), draw(EXTENTS), draw(EXTENTS)],
    }
    if draw(st.booleans()):
        record["iscrowd"] = draw(st.sampled_from([0, 1, True, False]))
    if draw(st.booleans()):
        record["attributes"] = draw(st.dictionaries(st.text(max_size=3), st.text(max_size=3)))
    return record


def _broken_annotation(records, record, fault):
    if fault[0] != "duplicate":
        return _broken(record, fault)
    ids = [r["id"] for r in records if isinstance(r, dict) and "id" in r]
    return {**record, "id": ids[0]} if ids else record


@st.composite
def annotation_files(draw):
    """Valid annotations with up to two broken ones among them, and now
    and then a category that breaks the dataset checks."""
    ids = draw(st.lists(ANNOTATION_IDS, unique=True, max_size=8))
    records = [draw(annotation_records(st.just(k))) for k in ids]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        fault = draw(st.sampled_from(ANNOTATION_FAULTS))
        record = _broken_annotation(records, draw(annotation_records(ANNOTATION_IDS)), fault)
        records.insert(draw(st.integers(0, len(records))), record)
    categories = ANNOTATION_CATEGORIES + draw(
        st.sampled_from([[]] * 8 + [[{"id": 1, "name": "pear"}], [{"id": 4, "name": "APPLE"}]])
    )
    return {"images": ANNOTATION_IMAGES, "annotations": records, "categories": categories}


def _coco_outcome(path, read):
    """What ``read`` loads, down to its columns, the classes and signs of
    its box coordinates and the bytes ``write_coco`` writes, or the error
    it raises; and the dataset."""
    try:
        ds, clamped = read(path)
    except FruitBenchError as exc:
        return (type(exc), str(exc)), None
    written = path.with_name("written.json")
    write_coco(ds, written)
    instances = [
        (
            a.id, a.image_id, a.category_id, a.attributes, a.iscrowd,
            [repr(v) for v in (a.box.x_min, a.box.y_min, a.box.x_max, a.box.y_max)],
        )
        for a in ds.instances
    ]
    columns = [(c.dtype.str, c.shape, c.tobytes()) for c in (getattr(ds, n) for n in COLUMNS)]
    columns.append([dict(m) for m in ds.gt_attributes])
    return (clamped, columns, instances, written.read_bytes()), ds


class TestLoadCocoColumns:
    """``load_coco`` against ``oracles.scalar_load_coco``: equal datasets,
    clamp counts, bit-equal columns and written bytes, or the same error
    class with the same message."""

    def assert_agrees(self, path):
        expected, scalar = _coco_outcome(path, oracles.scalar_load_coco)
        got, ds = _coco_outcome(path, load_coco)
        assert got == expected
        if ds is not None:
            assert ds == scalar and ds.instances == list(scalar.instances)
        return expected

    @settings(max_examples=300, deadline=None)
    @given(payload=annotation_files())
    def test_agrees_with_the_scalar_reader(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "annotations.json"
        path.write_text(json.dumps(payload))
        self.assert_agrees(path)

    @pytest.mark.parametrize("fault", ANNOTATION_FAULTS, ids=repr)
    def test_each_fault_agrees(self, tmp_path, fault):
        valid = {"id": 7, "image_id": 1, "category_id": 3, "bbox": [1, 2.5, 3, 4]}
        records = [valid, _broken_annotation([valid], {**valid, "id": 8}, fault)]
        path = minimal_coco(
            tmp_path, images=ANNOTATION_IMAGES, categories=ANNOTATION_CATEGORIES,
            annotations=records + [{**valid, "id": 9}],
        )
        expected = self.assert_agrees(path)
        assert expected[0] in (ParseError, ValidationError, IntegrityError)

    @pytest.mark.parametrize("annotations, clamped", [
        ([], 0),
        ([{"id": 2**63, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}], 0),
        ([{"id": 1, "image_id": 1, "category_id": 1, "bbox": [-0.0, 5, 80, 1]}], 1),
        ([{"id": 1, "image_id": 2, "category_id": 1, "bbox": [2**53, -0.0, 9, 2**61]}], 1),
        ([{"id": 1, "image_id": 1, "category_id": 1, "bbox": [70, 50, 1, 1]}], 1),
    ], ids=["empty", "id-past-int64", "negative-zero-clamped", "past-2**53", "outside"])
    def test_valid_cases_agree(self, tmp_path, annotations, clamped):
        path = minimal_coco(
            tmp_path, images=ANNOTATION_IMAGES, categories=ANNOTATION_CATEGORIES,
            annotations=annotations,
        )
        assert self.assert_agrees(path)[0] == clamped

    def test_freed_without_the_cycle_collector(self, tmp_path):
        """The instance builder holds no reference back to its dataset, so a
        loaded dataset is freed as soon as its last reference goes."""
        ds, _ = load_coco(minimal_coco(tmp_path))
        assert ds.instances[0].id == 1
        dataset = weakref.ref(ds)
        gc.disable()
        try:
            del ds
            assert dataset() is None
        finally:
            gc.enable()


class TestCollectorPause:
    """The loaders run with the cyclic collector paused, then restore the
    state they found, on errors too."""

    @staticmethod
    def collections_during(load, *args) -> int:
        seen = []

        def count(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.callbacks.append(count)
        try:
            load(*args)
            return len(seen)
        finally:
            gc.callbacks.remove(count)

    def test_no_collection_inside_a_large_load(self, tmp_path):
        boxes = [[k % 90, k % 70, 4, 4] for k in range(20_000)]
        annotations = [
            {"id": k + 1, "image_id": 1, "category_id": 1, "bbox": box}
            for k, box in enumerate(boxes)
        ]
        path = minimal_coco(tmp_path, annotations=annotations)
        assert self.collections_during(load_coco, path) == 0
        ds, _ = load_coco(path)
        records = [{"image_id": 1, "category_id": 1, "bbox": box, "score": 0.5} for box in boxes]
        predictions = tmp_path / "predictions.json"
        predictions.write_text(json.dumps(records))
        assert self.collections_during(load_predictions, predictions, ds) == 0
        assert gc.isenabled()

    def test_state_restored_after_a_bad_record(self, tmp_path):
        ds, _ = load_coco(minimal_coco(tmp_path))
        bad = {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, -1, 1]}
        path = minimal_coco(tmp_path, annotations=[bad])
        predictions = tmp_path / "predictions.json"
        record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 2}
        predictions.write_text(json.dumps([record]))
        for load, args in ((load_coco, (path,)), (load_predictions, (predictions, ds))):
            with pytest.raises(ValidationError):
                load(*args)
            assert gc.isenabled()
            gc.disable()
            try:
                with pytest.raises(ValidationError):
                    load(*args)
                assert not gc.isenabled()  # a caller's disabled collector stays so
            finally:
                gc.enable()
