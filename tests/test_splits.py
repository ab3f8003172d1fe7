import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fruitbench.datamodel import Category, DetectionDataset, GroundTruthInstance, ImageRecord
from fruitbench.errors import ManifestDigestError, ValidationError
from fruitbench.geometry import BoundingBox
from fruitbench.splits import (
    SplitResult,
    SplitSpec,
    _digest,
    load_manifest,
    majority_category,
    sample_k_shot,
    split_cross_class,
    split_train_test,
    write_manifest,
)

from . import oracles


def make_dataset(images_per_category: dict[str, int]) -> DetectionDataset:
    """Single-category images: ``n`` images per category name."""
    categories = [Category(i + 1, name) for i, name in enumerate(images_per_category)]
    images = []
    instances = []
    next_img = 1
    next_inst = 1
    for cat in categories:
        for _ in range(images_per_category[cat.name]):
            images.append(ImageRecord(next_img, f"img{next_img}.jpg", 64, 64))
            instances.append(
                GroundTruthInstance(next_inst, next_img, cat.id, BoundingBox(0, 0, 10, 10))
            )
            next_img += 1
            next_inst += 1
    return DetectionDataset(categories, images, instances)


class TestSplitSpec:
    def test_kind_field_discipline(self):
        SplitSpec(kind="train-test", seed=1, train_fraction=0.6)
        with pytest.raises(ValidationError):
            SplitSpec(kind="train-test", seed=1, train_fraction=0.6, k=5)
        with pytest.raises(ValidationError):
            SplitSpec(kind="k-shot", seed=1, train_fraction=0.6)  # k missing
        with pytest.raises(ValidationError):
            SplitSpec(kind="cross-class", seed=1, train_fraction=0.6)  # held_out missing
        with pytest.raises(ValidationError):
            SplitSpec(kind="nonsense", seed=1)

    def test_fraction_range(self):
        with pytest.raises(ValidationError):
            SplitSpec(kind="train-test", seed=1, train_fraction=1.0)

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            SplitSpec(kind="train-test", seed=-1, train_fraction=0.5)

    @pytest.mark.parametrize("field", ["seed", "k"])
    def test_boolean_rejected(self, field):
        values = {"seed": 1, "k": 1, field: True}
        with pytest.raises(ValidationError, match=field):
            SplitSpec(kind="k-shot", train_fraction=0.6, **values)


class TestMajorityCategory:
    def test_majority_and_ties(self):
        ds = DetectionDataset(
            categories=[Category(1, "apple"), Category(2, "orange")],
            images=[ImageRecord(1, "a.jpg", 64, 64), ImageRecord(2, "b.jpg", 64, 64)],
            instances=[
                # image 1: 2 orange, 1 apple -> orange
                GroundTruthInstance(1, 1, 2, BoundingBox(0, 0, 5, 5)),
                GroundTruthInstance(2, 1, 2, BoundingBox(5, 5, 9, 9)),
                GroundTruthInstance(3, 1, 1, BoundingBox(1, 1, 2, 2)),
                # image 2: 1 apple, 1 orange -> tie -> lowest id (apple)
                GroundTruthInstance(4, 2, 1, BoundingBox(0, 0, 5, 5)),
                GroundTruthInstance(5, 2, 2, BoundingBox(5, 5, 9, 9)),
            ],
        )
        assert majority_category(ds) == {1: 2, 2: 1}

    @settings(max_examples=200, deadline=None)
    @given(
        category_ids=st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True),
        n_images=st.integers(1, 6),
        rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=30),
    )
    def test_agrees_with_the_loop_oracle(self, category_ids, n_images, rows):
        """Small category and image counts make ties and images without
        ground truth common; category ids in any order and size."""
        categories = [Category(c, f"c{c}") for c in category_ids]
        images = [ImageRecord(10 * i + 3, f"{i}.jpg", 64, 64) for i in range(n_images)]
        instances = [
            GroundTruthInstance(
                k + 1, images[i % n_images].id, category_ids[c % len(category_ids)],
                BoundingBox(0, 0, 5, 5),
            )
            for k, (i, c) in enumerate(rows)
        ]
        ds = DetectionDataset(categories, images, instances)
        got = majority_category(ds)
        assert got == oracles.loop_majority_category(ds)
        assert list(got) == sorted(got)


class TestSplitTrainTest:
    def test_floor_arithmetic(self):
        ds = make_dataset({"apple": 10})
        result = split_train_test(ds, 0.6, seed=3)
        assert len(result.train_image_ids) == 6
        assert len(result.test_image_ids) == 4

    def test_decimal_fraction_is_exact(self):
        # 0.3 * 10 must floor to 3, not to 2 via binary rounding.
        ds = make_dataset({"apple": 10})
        result = split_train_test(ds, 0.3, seed=3)
        assert len(result.train_image_ids) == 3

    def test_determinism(self):
        ds = make_dataset({"apple": 10, "orange": 7})
        a = split_train_test(ds, 0.6, seed=11)
        b = split_train_test(ds, 0.6, seed=11)
        assert a == b
        assert a.manifest_digest == b.manifest_digest

    def test_pinned_stream_regression(self):
        # Frozen output of the documented generator: any change to the
        # stream derivation or shuffle algorithm must show up here.
        ds = make_dataset({"a": 10, "b": 8})
        result = split_train_test(ds, 0.6, seed=42)
        assert result.train_image_ids == (2, 3, 4, 5, 6, 10, 11, 15, 17, 18)
        assert result.manifest_digest == (
            "a23c63685a8d652c6b82e726c2a0c283c46734b3a02b3a8d0dd2ad67193be5d3"
        )

    def test_extreme_seeds(self):
        ds = make_dataset({"a": 10, "b": 8})
        split_train_test(ds, 0.6, seed=0)
        split_train_test(ds, 0.6, seed=2**64 - 1)

    def test_seed_changes_split(self):
        ds = make_dataset({"apple": 30})
        a = split_train_test(ds, 0.5, seed=1)
        b = split_train_test(ds, 0.5, seed=2)
        assert a.train_image_ids != b.train_image_ids

    def test_stratified_per_category(self):
        ds = make_dataset({"apple": 10, "orange": 5, "lemon": 7})
        result = split_train_test(ds, 0.6, seed=5)
        assignment = majority_category(ds)
        for cat_id, expected in ((1, 6), (2, 3), (3, 4)):
            got = sum(1 for i in result.train_image_ids if assignment[i] == cat_id)
            assert got == expected

    def test_empty_dataset(self):
        ds = DetectionDataset([Category(1, "apple")], [], [])
        with pytest.raises(ValidationError, match="empty"):
            split_train_test(ds, 0.6, seed=1)

    @given(
        sizes=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), st.integers(1, 12), min_size=1
        ),
        fraction=st.sampled_from([0.2, 0.4, 0.5, 0.6, 0.75]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_and_complete(self, sizes, fraction, seed):
        ds = make_dataset(sizes)
        result = split_train_test(ds, fraction, seed)
        train, test = set(result.train_image_ids), set(result.test_image_ids)
        assert not (train & test)
        assert train | test == {m.id for m in ds.images}


class TestSampleKShot:
    def test_zero_shot(self):
        ds = make_dataset({"apple": 10, "orange": 10})
        pool = split_train_test(ds, 0.6, seed=1)
        result = sample_k_shot(ds, pool, 0, seed=1)
        assert result.train_image_ids == ()
        assert result.test_image_ids == pool.test_image_ids
        assert result.spec.kind == "zero-shot"

    @pytest.mark.parametrize("k", [True, False])
    def test_boolean_k_rejected(self, k):
        ds = make_dataset({"apple": 10, "orange": 10})
        pool = split_train_test(ds, 0.6, seed=1)
        with pytest.raises(ValidationError, match="k must be"):
            sample_k_shot(ds, pool, k, seed=1)

    def test_one_shot_on_five_categories(self):
        ds = make_dataset({"a": 6, "b": 6, "c": 6, "d": 6, "e": 6})
        pool = split_train_test(ds, 0.6, seed=9)
        result = sample_k_shot(ds, pool, 1, seed=9)
        assert len(result.train_image_ids) == 5
        assignment = majority_category(ds)
        assert {assignment[i] for i in result.train_image_ids} == {1, 2, 3, 4, 5}

    def test_insufficient_pool_names_category(self):
        ds = make_dataset({"apple": 10, "orange": 7})
        pool = split_train_test(ds, 0.6, seed=2)  # orange pool: 4 images
        with pytest.raises(ValidationError, match="orange.*4"):
            sample_k_shot(ds, pool, 5, seed=2)

    def test_category_without_train_images_rejected(self):
        """A category whose images all went to test has an empty pool,
        which is too short for any k > 0 rather than skipped."""
        ds = make_dataset({"apple": 1, "pear": 5})
        pool = split_train_test(ds, 0.6, seed=1)
        assert 1 in pool.test_image_ids
        message = "^category 'apple' has only 0 train images, cannot draw k=1$"
        with pytest.raises(ValidationError, match=message):
            sample_k_shot(ds, pool, 1, seed=1)

    def test_foreign_pool_image_named(self):
        ds = make_dataset({"apple": 4, "pear": 4})
        pool = split_train_test(ds, 0.5, seed=3)
        foreign = replace(pool, train_image_ids=pool.train_image_ids + (99,))
        with pytest.raises(ValidationError, match="train pool image 99 "):
            sample_k_shot(ds, foreign, 1, seed=3)

    def test_sample_is_subset_of_pool(self):
        ds = make_dataset({"apple": 20, "orange": 20})
        pool = split_train_test(ds, 0.6, seed=4)
        result = sample_k_shot(ds, pool, 5, seed=77)
        assert set(result.train_image_ids) <= set(pool.train_image_ids)
        assert len(result.train_image_ids) == 10


class TestSplitCrossClass:
    def test_held_out_not_in_train(self):
        ds = make_dataset({"a": 6, "b": 6, "c": 6, "d": 6, "lemon": 6})
        result = split_cross_class(ds, held_out=5, fraction=0.6, seed=3)
        assignment = majority_category(ds)
        assert all(assignment[i] != 5 for i in result.train_image_ids)
        assert all(assignment[i] == 5 for i in result.test_image_ids)

    def test_test_sets_partition(self):
        ds = make_dataset({"a": 6, "b": 6, "c": 6, "d": 6, "e": 6})
        test_sets = [
            set(split_cross_class(ds, held_out=c.id, fraction=0.6, seed=3).test_image_ids)
            for c in ds.categories
        ]
        for i in range(len(test_sets)):
            for j in range(i + 1, len(test_sets)):
                assert not (test_sets[i] & test_sets[j])

    def test_matches_standard_test_portion(self):
        ds = make_dataset({"a": 10, "b": 10})
        standard = split_train_test(ds, 0.6, seed=8)
        cross = split_cross_class(ds, held_out=2, fraction=0.6, seed=8)
        assignment = majority_category(ds)
        standard_b_test = {i for i in standard.test_image_ids if assignment[i] == 2}
        assert set(cross.test_image_ids) == standard_b_test

    def test_toy_floor_arithmetic(self):
        ds = make_dataset({"apple": 3, "orange": 2})
        result = split_cross_class(ds, held_out=2, fraction=0.6, seed=0)
        assignment = majority_category(ds)
        assert len(result.train_image_ids) == 1  # floor(0.6 * 3)
        assert all(assignment[i] == 1 for i in result.train_image_ids)
        assert len(result.test_image_ids) == 1  # 2 - floor(0.6 * 2)

    def test_single_category_rejected(self):
        ds = make_dataset({"apple": 5})
        with pytest.raises(ValidationError):
            split_cross_class(ds, held_out=1, fraction=0.6, seed=0)


class TestZeroShot:
    def test_empty_train(self):
        ds = make_dataset({"apple": 10})
        result = sample_k_shot(ds, split_train_test(ds, 0.6, 5), 0, 5)
        assert result.train_image_ids == ()
        assert result.test_image_ids == split_train_test(ds, 0.6, seed=5).test_image_ids


class TestManifests:
    def test_roundtrip(self, tmp_path):
        ds = make_dataset({"apple": 10, "orange": 8})
        result = split_train_test(ds, 0.6, seed=123)
        path = tmp_path / "split.json"
        write_manifest(result, path)
        assert load_manifest(path) == result

    def test_zero_shot_manifest(self, tmp_path):
        ds = make_dataset({"apple": 10})
        result = sample_k_shot(ds, split_train_test(ds, 0.6, 1), 0, 1)
        path = tmp_path / "split.json"
        write_manifest(result, path)
        loaded = load_manifest(path)
        assert loaded.train_image_ids == ()

    def test_tampered_manifest_detected(self, tmp_path):
        ds = make_dataset({"apple": 10})
        result = split_train_test(ds, 0.6, seed=1)
        path = tmp_path / "split.json"
        write_manifest(result, path)
        payload = json.loads(path.read_text())
        payload["train_image_ids"][0] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestDigestError):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["train_image_ids", "test_image_ids"])
    def test_repeated_image_id_rejected(self, tmp_path, key):
        """A repeated id would double-count its image's ground truth, even
        under a recomputed digest."""
        ds = make_dataset({"apple": 10})
        result = split_train_test(ds, 0.6, seed=1)
        path = tmp_path / "split.json"
        write_manifest(result, path)
        payload = json.loads(path.read_text())
        repeated = payload[key][1]
        payload[key].append(repeated)
        train, test = tuple(payload["train_image_ids"]), tuple(payload["test_image_ids"])
        payload["digest"] = _digest(result.spec, train, test)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"{key} repeats image id {repeated}$"):
            load_manifest(path)
        with pytest.raises(ValidationError, match=f"{key} repeats image id {repeated}$"):
            SplitResult(train, test, result.spec, payload["digest"])

    def test_not_a_manifest(self, tmp_path):
        from fruitbench.errors import ParseError

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"images": []}))
        with pytest.raises(ParseError, match="not a split manifest"):
            load_manifest(path)

    def test_k_shot_roundtrip(self, tmp_path):
        ds = make_dataset({"apple": 10, "orange": 10})
        pool = split_train_test(ds, 0.6, seed=1)
        result = sample_k_shot(ds, pool, 2, seed=1)
        path = tmp_path / "split.json"
        write_manifest(result, path)
        loaded = load_manifest(path)
        assert loaded.spec.k == 2
        assert loaded == result
