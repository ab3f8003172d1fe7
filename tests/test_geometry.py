import math

import pytest
from hypothesis import given, settings, strategies as st

from fruitbench.errors import ValidationError
from fruitbench.geometry import (
    BoundingBox,
    area,
    box_from_xywh,
    corner_array,
    corners_from_xywh,
    giou,
    intersection_area,
    iou,
    l1_box_distance,
    pairwise_areas,
    union_area,
)

from .generators import scaled
from .oracles import raster_giou, raster_iou


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


# Coordinates on a 1/64 grid: every arithmetic step in the conversions is
# exact in binary, so round-trip checks can be bit-level.
grid_coords = st.integers(min_value=0, max_value=2**16).map(lambda n: n / 64)


@st.composite
def boxes(draw, coords=grid_coords):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return BoundingBox(x0, y0, x1, y1)


@st.composite
def integer_boxes(draw, hi=24):
    x0, x1 = sorted((draw(st.integers(0, hi)), draw(st.integers(0, hi))))
    y0, y1 = sorted((draw(st.integers(0, hi)), draw(st.integers(0, hi))))
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            BoundingBox(2, 0, 1, 1)
        with pytest.raises(ValidationError):
            BoundingBox(0, 5, 1, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, math.inf, 1)
        with pytest.raises(ValidationError):
            BoundingBox(math.nan, 0, 1, 1)

    def test_zero_area_allowed(self):
        assert area(box(0, 0, 0, 5)) == 0.0

    @pytest.mark.parametrize(
        "inside", [box(0, 0, 64, 48), box(-0.0, 3, 10.5, 48.0), box(1.5, 2, 3, 4)]
    )
    def test_clamped_keeps_an_inside_box(self, inside):
        assert inside.clamped(64, 48) is inside

    @pytest.mark.parametrize(
        "outside, expected",
        [
            (box(-1, 2, 10, 20), (0.0, 2, 10, 20)),
            (box(5, -0.5, 70, 20), (5, 0.0, 64, 20)),
            (box(5, 6, 10, 48.25), (5, 6, 10, 48)),
            (box(-9, -9, -1, -1), (0.0, 0.0, 0.0, 0.0)),
        ],
    )
    def test_clamped_clips_an_outside_box(self, outside, expected):
        clipped = outside.clamped(64, 48)
        assert clipped is not outside
        got = (clipped.x_min, clipped.y_min, clipped.x_max, clipped.y_max)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]


class TestArea:
    def test_unit_box(self):
        assert area(box(0, 0, 1, 1)) == 1.0

    def test_degenerate_width(self):
        assert area(box(0, 0, 0, 5)) == 0.0

    def test_hand_multiplication(self):
        assert area(box(2, 3, 5, 7)) == 12.0


class TestIou:
    def test_identity(self):
        assert iou(box(0, 0, 1, 1), box(0, 0, 1, 1)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(2, 0, 3, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 7
        assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_two_degenerate_boxes(self):
        assert iou(box(0, 0, 0, 0), box(1, 1, 1, 1)) == 0.0


class TestGiou:
    def test_identical(self):
        assert giou(box(0, 0, 1, 1), box(0, 0, 1, 1)) == 1.0

    def test_disjoint(self):
        # union 2, enclosing box 3
        assert giou(box(0, 0, 1, 1), box(2, 0, 3, 1)) == pytest.approx(-1 / 3, abs=1e-12)

    def test_nested(self):
        # enclosing box equals the outer box, so giou == iou == 1/4
        assert giou(box(0, 0, 2, 2), box(0, 0, 1, 1)) == pytest.approx(0.25, abs=1e-12)

    def test_two_degenerate_boxes_error(self):
        with pytest.raises(ValidationError):
            giou(box(0, 0, 0, 0), box(5, 5, 5, 5))

    def test_one_degenerate_box_ok(self):
        value = giou(box(0, 0, 2, 2), box(1, 1, 1, 1))
        assert -1 < value <= 1


class TestL1BoxDistance:
    def test_identical(self):
        assert l1_box_distance(box(3, 4, 9, 11), box(3, 4, 9, 11), 100, 100) == 0.0

    def test_hand_conversion(self):
        value = l1_box_distance(box(0, 0, 10, 10), box(0, 0, 20, 10), 100, 100)
        assert value == pytest.approx(0.15, abs=1e-12)

    def test_translation_only_moves_center(self):
        a = box(20, 30, 40, 50)
        b = box(30, 30, 50, 50)
        assert l1_box_distance(a, b, 100, 100) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_bad_image_dims(self):
        with pytest.raises(ValidationError):
            l1_box_distance(box(0, 0, 1, 1), box(0, 0, 1, 1), 0, 100)


class TestFormatConversions:
    @given(boxes())
    def test_top_left_size_roundtrip(self, b):
        assert box_from_xywh([b.x_min, b.y_min, b.width, b.height]) == b

    @pytest.mark.parametrize(
        "values",
        [None, "abcd", [0, 0, 1], [0, 0, 1, 1, 1], [True, 0, 1, 1], [0, 0, "1", 1],
         {"x": 0}, [0, 0, 10**400, 1]],
    )
    def test_malformed_values_rejected(self, values):
        with pytest.raises(ValidationError):
            box_from_xywh(values)


class TestArrayKernels:
    @given(
        st.lists(boxes(st.floats(-1e300, 1e300)), max_size=5),
        st.lists(boxes(st.floats(-1e300, 1e300)), max_size=5),
    )
    def test_pairwise_areas_match_scalar(self, a, b):
        """Corner rows in box order; each area equals the scalar value bit
        for bit, overflow to infinity included."""
        corners_a, corners_b = corner_array(a), corner_array(b)
        assert corners_a.shape == (len(a), 4)
        assert corners_a.tolist() == [[x.x_min, x.y_min, x.x_max, x.y_max] for x in a]
        inter, union = pairwise_areas(corners_a, corners_b)
        assert inter.shape == union.shape == (len(a), len(b))
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert float(inter[i, j]).hex() == intersection_area(box_a, box_b).hex()
                assert float(union[i, j]).hex() == union_area(box_a, box_b).hex()

    # On-disk box values: floats with their edge values, ints past the float
    # range, and booleans, which are no box numbers.
    xywh_values = st.one_of(
        st.floats(),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]),
        st.integers(-50, 50),
        st.integers(-(2**1100), 2**1100),
        st.booleans(),
    )

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(xywh_values, min_size=4, max_size=4), st.lists(xywh_values, max_size=6)
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_corners_from_xywh_match_scalar(self, bbox):
        """The array reader rejects a list (None or ``OverflowError``)
        exactly when ``box_from_xywh`` rejects one of its boxes, and
        otherwise gives their ``corner_array`` bit for bit."""
        try:
            expected = corner_array([box_from_xywh(values) for values in bbox])
        except ValidationError:
            expected = None
        try:
            got = corners_from_xywh(bbox)
        except OverflowError:
            got = None
        if expected is None:
            assert got is None
        else:
            assert got.tobytes() == expected.tobytes()


class TestProperties:
    @given(boxes(), boxes())
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)
        if area(a) > 0 or area(b) > 0:
            assert giou(a, b) == giou(b, a)

    @given(boxes(), boxes())
    def test_bounds_and_ordering(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        if area(a) > 0 or area(b) > 0:
            g = giou(a, b)
            assert -1.0 < g <= 1.0
            assert g <= v + 1e-12

    @given(boxes(), boxes(), st.sampled_from([0.5, 2.0, 3.0, 7.25]))
    def test_scale_invariance(self, a, b, s):
        assert iou(scaled(a, s), scaled(b, s)) == pytest.approx(iou(a, b), rel=1e-12, abs=1e-12)
        if area(a) > 0 or area(b) > 0:
            assert giou(scaled(a, s), scaled(b, s)) == pytest.approx(
                giou(a, b), rel=1e-12, abs=1e-12
            )

    @given(integer_boxes(), integer_boxes())
    def test_matches_rasterized_counting(self, a, b):
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-9)
        if area(a) > 0 or area(b) > 0:
            assert giou(a, b) == pytest.approx(raster_giou(a, b), abs=1e-9)
