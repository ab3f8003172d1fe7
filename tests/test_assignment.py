import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fruitbench import assignment
from fruitbench.assignment import (
    Assignment,
    CostMatrix,
    LossWeights,
    _cost_terms,
    build_match_cost,
    hungarian,
    set_loss,
)
from fruitbench.cli import _NEGATIVE_LOGIT
from fruitbench.datamodel import GroundTruthInstance
from fruitbench.errors import ValidationError
from fruitbench.geometry import BoundingBox

from .oracles import (
    TokenLogits,
    brute_force_assignment_cost,
    brute_force_lexicographic_assignment,
    forced_lexicographic_assignment,
    loss_arrays,
    scalar_cost_terms,
    token_alignment_cost,
)

LN2 = math.log(2.0)
NAN, INF = math.nan, math.inf


def gt(instance_id, box):
    return GroundTruthInstance(instance_id, 1, 1, box)


def saturated_logits(n_tokens, positive_index):
    return TokenLogits(tuple(30.0 if i == positive_index else -30.0 for i in range(n_tokens)))


class TestCostMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            CostMatrix(np.array([[1.0, math.inf]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            CostMatrix(np.zeros(3))


class TestHungarian:
    def test_single_cell(self):
        a = hungarian(CostMatrix(np.array([[3.5]])))
        assert a.pairs == ((0, 0),)
        assert a.total_cost == 3.5

    def test_two_by_two_diagonal(self):
        a = hungarian(CostMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_cost == 2.0

    def test_two_by_two_antidiagonal(self):
        a = hungarian(CostMatrix(np.array([[4.0, 1.0], [2.0, 3.0]])))
        assert a.pairs == ((0, 1), (1, 0))
        assert a.total_cost == 3.0

    def test_empty_matrix(self):
        a = hungarian(CostMatrix(np.zeros((0, 4))))
        assert a == Assignment((), (), (0, 1, 2, 3), 0.0)

    def test_rectangular_unmatched_listed(self):
        a = hungarian(CostMatrix(np.array([[5.0, 1.0, 9.0]])))
        assert a.pairs == ((0, 1),)
        assert a.unmatched_ground_truth == (0, 2)

    def test_lexicographic_ties(self):
        a = hungarian(CostMatrix(np.zeros((3, 3))))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))
        b = hungarian(CostMatrix(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])))
        assert b.pairs == ((0, 0), (1, 1))
        assert b.unmatched_predictions == (2,)

    def test_lexicographic_prefers_early_rows_matched(self):
        # Both rows could take the single cheap column; row 0 must win it
        # only if total cost stays minimal. Here any single pair costs the
        # same, so the lexicographically smallest pair list wins.
        a = hungarian(CostMatrix(np.array([[7.0], [7.0]])))
        assert a.pairs == ((0, 0),)
        assert a.unmatched_predictions == (1,)

    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, rows, cols, seed):
        rng = random.Random(seed)
        matrix = np.array(
            [[float(rng.randint(-10, 30)) for _ in range(cols)] for _ in range(rows)]
        )
        result = hungarian(CostMatrix(matrix))
        assert len(result.pairs) == min(rows, cols)
        assert result.total_cost == pytest.approx(
            brute_force_assignment_cost(matrix), abs=1e-9
        )

    def test_tie_break_matches_lexicographic_oracle(self):
        # Value ranges from dense ties ({0,1}, constants) to few ties.
        rng = random.Random(2407)
        spans = [(0, 1), (0, 2), None, (-9, 20)]
        for trial in range(2400):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            span = spans[trial % len(spans)]
            if span is None:
                matrix = np.full((rows, cols), float(rng.randint(-9, 20)))
            else:
                matrix = np.array(
                    [[float(rng.randint(*span)) for _ in range(cols)] for _ in range(rows)]
                )
            expected = brute_force_lexicographic_assignment(matrix)
            assert hungarian(CostMatrix(matrix)).pairs == expected, (trial, matrix)

    def test_tie_break_matches_forced_oracle_beyond_enumeration(self):
        pytest.importorskip("scipy")
        from scipy.optimize import linear_sum_assignment

        def min_cost(sub):
            rows, cols = linear_sum_assignment(sub)
            return float(sub[rows, cols].sum())

        rng = np.random.default_rng(1987)
        for trial in range(150):
            rows, cols = (int(n) for n in rng.integers(2, 15, 2))
            matrix = rng.integers(0, 2 + trial % 2, (rows, cols)).astype(float)
            if trial % 3 == 0:
                # Hall-tight blocks: the early predictions tie on every
                # column, but the late ones can use only the early columns.
                matrix = np.ones((rows, cols))
                matrix[: rows // 2] = 0.0
                matrix[rows // 2 :, : cols // 2] = 0.0
                matrix[rng.random((rows, cols)) < 0.1] = 1.0
            expected = forced_lexicographic_assignment(matrix, min_cost)
            assert hungarian(CostMatrix(matrix)).pairs == expected, (trial, matrix)

    def test_tie_break_matches_forced_oracle_at_detr_shapes(self):
        """Many predictions against a few ground-truth boxes, and the
        transposes: most predictions have no tight edge, and the solver's
        short-side rows run an augmenting round only where their cheapest
        column is shared."""
        pytest.importorskip("scipy")
        from scipy.optimize import linear_sum_assignment

        def min_cost(sub):
            rows, cols = linear_sum_assignment(sub)
            return float(sub[rows, cols].sum())

        rng = np.random.default_rng(2407)
        matrices = []
        for _ in range(24):
            rows, cols = int(rng.integers(20, 61)), int(rng.integers(2, 7))
            matrices.append(rng.integers(0, 3, (rows, cols)).astype(float))
        # Every box's first cheapest prediction is prediction 0: every row runs a round.
        shared = rng.integers(1, 3, (40, 5)).astype(float)
        shared[0] = 0.0
        # Each box's first cheapest prediction is its own: no round runs.
        own = rng.integers(1, 3, (40, 5)).astype(float)
        own[[3, 9, 17, 26, 38], range(5)] = 0.0
        # The solver leaves prediction 2 unmatched, though the canonical
        # optimum matches it: it has a tight edge, so the walk must visit it.
        visited = np.full((20, 3), 2.0)
        visited[:6] = [[1, 2, 0], [2, 2, 2], [2, 1, 2], [2, 2, 1], [2, 0, 0], [2, 1, 2]]
        matrices += [shared, own, visited]
        for matrix in matrices:
            for m in (matrix, matrix.T):
                expected = forced_lexicographic_assignment(m, min_cost)
                assert hungarian(CostMatrix(m)).pairs == expected, m

    def test_matches_scipy_optimum_at_detr_shapes(self):
        pytest.importorskip("scipy")
        from scipy.optimize import linear_sum_assignment

        started = time.monotonic()
        rng = np.random.default_rng(2016)
        for shape in [(100, 10), (900, 10), (900, 50), (50, 900), (1000, 50), (200, 200)]:
            for matrix in (rng.random(shape), rng.integers(0, 2, shape).astype(float)):
                result = hungarian(CostMatrix(matrix))
                rows, cols = linear_sum_assignment(matrix)
                scale = max(1.0, float(np.max(np.abs(matrix))))
                assert abs(result.total_cost - float(matrix[rows, cols].sum())) <= (
                    1e-9 * scale * min(shape)
                ), shape
                assert len(result.pairs) == min(shape)
                preds = [i for i, _ in result.pairs]
                gts = [j for _, j in result.pairs]
                assert sorted(preds + list(result.unmatched_predictions)) == list(range(shape[0]))
                assert sorted(gts + list(result.unmatched_ground_truth)) == list(range(shape[1]))
        # Loose: a solver that blows up on many-queries-few-boxes shapes
        # fails here instead of stalling the suite.
        assert time.monotonic() - started <= 10.0

    @pytest.mark.parametrize("m", [1, 2, 40])
    def test_hall_pruning_bounds_the_searches(self, m, monkeypatch):
        """Row 0 is all 0 and rows 1..m cost 1 only on column m, so row 0
        must take column m. Once one forced choice of row 0 fails, the
        columns its repair search reached are ruled out without a search
        each: at most m + 1 searches instead of about 2m."""
        matrix = np.zeros((m + 1, m + 1))
        matrix[1:, m] = 1.0
        calls = []
        search = assignment._alternate

        def counted(*args):
            calls.append(args[0])
            return search(*args)

        monkeypatch.setattr(assignment, "_alternate", counted)
        result = hungarian(CostMatrix(matrix))
        assert result.pairs[:2] == ((0, m), (1, 0))
        assert result.total_cost == 0.0
        assert len(calls) <= m + 1

    @pytest.mark.parametrize("shape", ["zero-one", "hall"])
    def test_free_column_preference_bounds_the_rows_read(self, shape):
        """Among equally short columns a Dijkstra round ends at an unmatched
        one. On these ties each round then reads a row or two of the cost
        matrix; taking the first tied column instead reads about 20n."""
        n = 40
        if shape == "zero-one":
            matrix = np.random.default_rng(0).integers(0, 2, (n, n)).astype(float)
        else:  # the adversary of test_hall_pruning_bounds_the_searches
            matrix = np.zeros((n + 1, n + 1))
            matrix[1:, n] = 1.0

        class RowReads(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, int):
                    reads.append(index)
                return super().__getitem__(index)

        reads = []
        col_for_row, _, _, _ = assignment._solve_short_side(matrix.view(RowReads))
        assert sorted(col_for_row.tolist()) == list(range(len(matrix)))
        assert len(reads) <= 2 * n

    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, n, seed):
        rng = random.Random(seed)
        matrix = np.array([[rng.uniform(0, 10) for _ in range(n)] for _ in range(n)])
        base = hungarian(CostMatrix(matrix))
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = hungarian(CostMatrix(matrix[perm]))
        assert permuted.total_cost == pytest.approx(base.total_cost, rel=1e-9)
        # The permuted assignment is a valid optimal matching of the
        # permuted matrix (pairs themselves may differ under ties).
        assert sorted(p for p, _ in permuted.pairs) == list(range(n))


class TestTokenAlignmentCost:
    def test_uninformative_logits_cost_ln2(self):
        logits = TokenLogits((0.0, 0.0, 0.0))
        assert token_alignment_cost(logits, [True, False, False]) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_saturated_logits_near_zero(self):
        logits = saturated_logits(4, 1)
        assert token_alignment_cost(logits, [False, True, False, False]) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            token_alignment_cost(TokenLogits((0.0,)), [True, False])


def assert_terms_match_scalar(predictions, ground_truth, masks, img_w=640, img_h=480):
    """``_cost_terms`` on the ``loss_arrays`` of the inputs gives the scalar
    oracle's four arrays bit for bit (signed zeros included), or raises its
    error class with its message, which is returned."""
    arrays = loss_arrays(predictions, ground_truth, masks)
    try:
        expected = scalar_cost_terms(predictions, ground_truth, masks, img_w, img_h)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            _cost_terms(*arrays, img_w, img_h)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return str(exc)
    for got, want in zip(_cost_terms(*arrays, img_w, img_h), expected, strict=True):
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
    return None


def random_box(rng, low=0.0, high=600.0, max_side=120.0):
    x0, y0 = rng.uniform(low, high), rng.uniform(low, high)
    return BoundingBox(x0, y0, x0 + rng.uniform(0, max_side), y0 + rng.uniform(0, max_side))


# Coordinates that make boxes identical, nested, touching or degenerate,
# areas that underflow, signed zeros and thirds that do not round-trip.
COORDS = st.sampled_from([-0.0, 0.0, 1e-300, 0.1, 1.0 / 3.0, 1.0, 2.0, 2.5, 7.0, 1e150])
BOXES = st.tuples(COORDS, COORDS, COORDS, COORDS).map(
    lambda v: BoundingBox(min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3]))
)
LOGITS = st.sampled_from(
    [0.0, -0.0, _NEGATIVE_LOGIT, -_NEGATIVE_LOGIT, 1.5, -1.5, 40.0, -800.0]
) | st.floats(-50.0, 50.0)


@st.composite
def cost_cases(draw):
    """Up to 6 predictions against up to 4 ground truths; the logit and
    mask widths (one each, no token vector can be ragged in an array) and
    image sizes are now and then ones the scalar functions reject."""
    n_tokens = draw(st.integers(1, 3))
    widths = st.sampled_from([n_tokens] * 6 + [0, n_tokens + 1])
    width, mask_width = draw(widths), draw(widths)
    predictions = [
        (draw(BOXES), TokenLogits(tuple(draw(LOGITS) for _ in range(width))))
        for _ in range(draw(st.integers(0, 6)))
    ]
    ground_truth = [gt(k + 1, draw(BOXES)) for k in range(draw(st.integers(0, 4)))]
    masks = [[draw(st.booleans()) for _ in range(mask_width)] for _ in ground_truth]
    sizes = [(3, 7), (0.7, 1.0), (0, 480), (640, -2), (10**400, 480)]
    size = draw(st.sampled_from([(640, 480)] * 4 + sizes))
    return (predictions, ground_truth, masks, *size)


class TestCostTerms:
    @given(case=cost_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_oracle(self, case):
        assert_terms_match_scalar(*case)

    def test_random_boxes(self):
        rng = random.Random(7)
        for n_pred, n_gt, n_tokens in [(1, 1, 1), (40, 8, 5), (100, 10, 5), (7, 30, 2)]:
            predictions = [
                (random_box(rng), TokenLogits(tuple(rng.gauss(0, 8) for _ in range(n_tokens))))
                for _ in range(n_pred)
            ]
            ground_truth = [gt(k + 1, random_box(rng)) for k in range(n_gt)]
            masks = [[rng.random() < 0.4 for _ in range(n_tokens)] for _ in range(n_gt)]
            assert assert_terms_match_scalar(predictions, ground_truth, masks) is None

    def test_saturated_and_tied_logits(self):
        """The ``loss`` command's shape: one log-odds per query, every other
        token at the saturated negative logit, scores repeated."""
        rng = random.Random(8)
        n_tokens = 5
        predictions = []
        for q in range(60):
            scores = [_NEGATIVE_LOGIT] * n_tokens
            scores[q % n_tokens] = rng.choice([-_NEGATIVE_LOGIT, _NEGATIVE_LOGIT, 0.0, -0.0, 2.0])
            predictions.append((random_box(rng), TokenLogits(tuple(scores))))
        ground_truth = [gt(k + 1, random_box(rng)) for k in range(6)]
        masks = [[t == k % n_tokens for t in range(n_tokens)] for k in range(6)]
        assert assert_terms_match_scalar(predictions, ground_truth, masks) is None

    def test_degenerate_geometry(self):
        a = BoundingBox(10, 10, 30, 40)
        shapes = [
            a,
            BoundingBox(12, 15, 20, 25),  # nested
            BoundingBox(30, 10, 50, 40),  # touching along an edge
            BoundingBox(30, 40, 35, 45),  # touching at a corner
            BoundingBox(15, 0, 15, 60),  # zero width, crossing
            BoundingBox(0, 20, 60, 20),  # zero height, crossing
            BoundingBox(-0.0, -0.0, 1 / 3, 2 / 3),
        ]
        logits = TokenLogits((0.5, -0.5))
        predictions = [(box, logits) for box in shapes]
        ground_truth = [
            gt(1, a), gt(2, BoundingBox(0, 0, 60, 60)), gt(3, BoundingBox(15, 20, 16, 21)),
        ]
        masks = [[True, False], [False, True], [True, True]]
        assert assert_terms_match_scalar(predictions, ground_truth, masks, 64, 48) is None

    def test_empty_sides(self):
        box = BoundingBox(0, 0, 4, 4)
        assert assert_terms_match_scalar([], [gt(1, box), gt(2, box)], [[True, False]] * 2) is None
        predictions = [(box, TokenLogits((1.0, 0.0, 5.0))), (box, TokenLogits((0.0, -3.0, 2.0)))]
        assert assert_terms_match_scalar(predictions, [], []) is None
        # No pair checks the image size, so even one past the float range passes.
        assert assert_terms_match_scalar(predictions, [], [], 10**400, 480) is None
        assert assert_terms_match_scalar([], [], []) is None

    @pytest.mark.parametrize("n_pred, width, n_gt, mask_width", [
        (0, 2, 3, 5),  # no predictions: the mask width need not match
        (0, 0, 2, 1),
        (0, 3, 0, 3),
        (2, 3, 0, 5),  # no ground truth: neither need the logit width
        (2, 1, 0, 0),
    ])
    def test_empty_side_widths_are_free(self, n_pred, width, n_gt, mask_width):
        """With no pair to score, the two token widths need not agree; the
        empty side's arrays have the shapes a caller slicing an image's
        rows out of larger arrays passes."""
        box = [0.0, 0.0, 4.0, 4.0]
        l1, g, tac, negative = _cost_terms(
            np.array([box] * n_pred).reshape(n_pred, 4), np.zeros((n_pred, width)),
            np.array([box] * n_gt).reshape(n_gt, 4), np.ones((n_gt, mask_width), dtype=bool),
            640, 480,
        )
        assert l1.shape == g.shape == tac.shape == (n_pred, n_gt)
        assert negative.shape == (n_pred,)
        for value in negative.tolist():
            assert value == token_alignment_cost(TokenLogits((0.0,) * width), [False] * width)

    def test_grounding_dino_scale(self):
        rng = np.random.default_rng(900)
        corners = rng.uniform(0, 500, (950, 2))
        sides = rng.uniform(1, 140, (950, 2))
        boxes = [BoundingBox(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners, sides)]
        logits = rng.normal(0, 6, (900, 5))
        predictions = [(b, TokenLogits(tuple(row))) for b, row in zip(boxes, logits.tolist())]
        ground_truth = [gt(k + 1, b) for k, b in enumerate(boxes[900:])]
        masks = (rng.random((50, 5)) < 0.3).tolist()
        assert assert_terms_match_scalar(predictions, ground_truth, masks, 640, 640) is None

    @pytest.mark.parametrize(
        "boxes, tokens, size, message", [
            # (0, 0) mismatches tokens before (1, 0) is degenerate.
            ([(0, 0, 4, 4), (5, 5, 5, 5)], (2, 3), (64, 64), "token dimension mismatch: 2 logits"),
            # Within a pair GIoU fails before the token check.
            ([(5, 5, 5, 5), (0, 0, 4, 4)], (3, 2), (64, 64), "giou is undefined"),
            # A bad image size fails the first pair, before anything else.
            ([(5, 5, 5, 5), (5, 5, 5, 5)], (1, 3), (0, 64), "image dimensions must be positive"),
            # So does a size no float can hold.
            ([(5, 5, 5, 5), (5, 5, 5, 5)], (1, 3), (10**400, 64), "positive and fit a float"),
            # An empty token dimension fails the first pair's token check.
            ([(0, 0, 4, 4), (5, 5, 5, 5)], (0, 0), (64, 64), "token vectors must be non-empty"),
        ],
    )
    def test_first_failing_pair_raises_scalar_error(self, boxes, tokens, size, message):
        """``tokens`` is the (logit, mask) width: one each, since an array
        cannot hold token vectors of different lengths."""
        width, mask_width = tokens
        predictions = [(BoundingBox(*box), TokenLogits((0.0,) * width)) for box in boxes]
        ground_truth = [gt(1, BoundingBox(1, 1, 1, 1)), gt(2, BoundingBox(2, 2, 6, 6))]
        masks = [[k == 0 for k in range(mask_width)]] * 2
        assert message in assert_terms_match_scalar(predictions, ground_truth, masks, *size)

    def test_empty_token_vector_rejected_without_ground_truth(self):
        box = BoundingBox(0, 0, 4, 4)
        predictions = [(box, TokenLogits(())), (box, TokenLogits(()))]
        message = assert_terms_match_scalar(predictions, [], [])
        assert message == "token vectors must be non-empty"

    @pytest.mark.parametrize("row", [(0.0, NAN), (-INF, 1.0), (INF, NAN)])
    @pytest.mark.parametrize("n_gt", [0, 2])
    def test_non_finite_logits_raise_the_reference_error(self, row, n_gt):
        """A non-finite logit row is rejected as the reference's
        ``TokenLogits`` rejects it, with or without ground truth."""
        with pytest.raises(ValidationError) as expected:
            TokenLogits(row)
        box = [0.0, 0.0, 4.0, 4.0]
        with pytest.raises(ValidationError) as raised:
            _cost_terms(
                np.array([box, box]), np.array([(0.0, 0.0), row]),
                np.array([box] * n_gt).reshape(n_gt, 4), np.ones((n_gt, 2), dtype=bool), 640, 480,
            )
        assert (type(raised.value), str(raised.value)) == (
            type(expected.value), str(expected.value)
        )

    def test_mask_count_must_match_ground_truth(self):
        box = BoundingBox(0, 0, 4, 4)
        for predictions in ([], [(box, TokenLogits((1.0,)))]):
            message = assert_terms_match_scalar(predictions, [gt(1, box), gt(2, box)], [[True]])
            assert message == "2 ground-truth instances but 1 token masks"


def corners(*rows):
    return np.array(rows, dtype=float)


SHAPES = "expected (P, 4) predictions, (P, V) logits, (G, 4) ground_truth and (G, V) gt_token_masks"
# One image as arrays: two predictions over three tokens, one ground truth.
VALID_INPUTS = (
    corners([0, 0, 4, 4], [1, 1, 5, 5]), np.zeros((2, 3)),
    corners([1, 1, 5, 5]), np.array([[True, False, False]]),
)


class TestEntryChecks:
    """``set_loss`` and ``build_match_cost`` check their arrays up front:
    a bad box row raises the ``BoundingBox`` error for the first such row,
    a non-finite logit "token logits must be finite", and a wrong shape a
    ``ValidationError``, never a numpy error."""

    @pytest.mark.parametrize("position, value, message", [
        (0, corners([0, 0, 4, 4], [NAN, 1, 5, 5]), "box coordinate x_min must be finite, got nan"),
        (0, corners([0, 0, 4, INF], [1, 1, 5, 5]), "box coordinate y_max must be finite, got inf"),
        (2, corners([1, -INF, 5, 5]), "box coordinate y_min must be finite, got -inf"),
        (0, corners([4, 0, 0, 4], [1, 1, 5, 5]), "inverted box: (4.0, 0.0, 0.0, 4.0)"),
        (2, corners([1, 5, 5, 1]), "inverted box: (1.0, 5.0, 5.0, 1.0)"),
        # The first bad row decides, whatever is wrong with the next.
        (0, corners([4, 0, 0, 4], [NAN, 1, 5, 5]), "inverted box: (4.0, 0.0, 0.0, 4.0)"),
        (0, corners([NAN, 1, 5, 5], [4, 0, 0, 4]), "box coordinate x_min must be finite, got nan"),
        (1, np.array([[0.0, 1.0, 2.0], [0.0, NAN, 0.0]]), "token logits must be finite"),
        (1, np.array([[0.0, -INF, 2.0], [0.0, 0.0, 0.0]]), "token logits must be finite"),
        (0, np.zeros((2, 3)), f"{SHAPES}, got shapes (2, 3), (2, 3), (1, 4), (1, 3)"),
        (0, np.zeros(8), f"{SHAPES}, got shapes (8,), (2, 3), (1, 4), (1, 3)"),
        (0, [], f"{SHAPES}, got shapes (0,), (2, 3), (1, 4), (1, 3)"),
        (2, np.zeros((1, 4, 1)), f"{SHAPES}, got shapes (2, 4), (2, 3), (1, 4, 1), (1, 3)"),
        (1, np.zeros(6), f"{SHAPES}, got shapes (2, 4), (6,), (1, 4), (1, 3)"),
        (1, np.zeros((3, 3)), f"{SHAPES}, got shapes (2, 4), (3, 3), (1, 4), (1, 3)"),
        (3, np.ones(3, dtype=bool), f"{SHAPES}, got shapes (2, 4), (2, 3), (1, 4), (3,)"),
        (3, np.ones((2, 3), dtype=bool), "1 ground-truth instances but 2 token masks"),
        (0, [[0, 0, 4, 4], [1, 1, 5]], f"{SHAPES} as arrays of numbers"),
        (0, [[0, 0, 4, 4], [10**400, 1, 5, 5]], f"{SHAPES} as arrays of numbers"),
        (1, [["a", "b", "c"]] * 2, f"{SHAPES} as arrays of numbers"),
    ])
    @pytest.mark.parametrize("entry", [set_loss, build_match_cost], ids=lambda f: f.__name__)
    def test_bad_input_raises_validation_error(self, entry, position, value, message):
        arrays = list(VALID_INPUTS)
        arrays[position] = value
        with pytest.raises(ValidationError) as raised:
            entry(*arrays, 64, 48)
        assert (type(raised.value), str(raised.value)) == (ValidationError, message)


class TestBuildMatchCost:
    def test_perfect_prediction_costs_nothing(self):
        b = BoundingBox(10, 10, 30, 30)
        arrays = loss_arrays([(b, saturated_logits(3, 0))], [gt(1, b)], [[True, False, False]])
        assert build_match_cost(*arrays, 100, 100).entries[0, 0] < 1e-6

    def test_uninformative_logits_cost(self):
        b = BoundingBox(10, 10, 30, 30)
        weights = LossWeights(l1=1.0, giou=1.0, contrastive=2.5)
        arrays = loss_arrays([(b, TokenLogits((0.0, 0.0)))], [gt(1, b)], [[True, False]])
        costs = build_match_cost(*arrays, 100, 100, weights)
        assert costs.entries[0, 0] == pytest.approx(2.5 * LN2, abs=1e-9)

    def test_disjoint_boxes_giou_term(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 0, 3, 1)
        weights = LossWeights(l1=0.0, giou=3.0, contrastive=0.0)
        arrays = loss_arrays([(a, saturated_logits(1, 0))], [gt(1, b)], [[True]])
        costs = build_match_cost(*arrays, 100, 100, weights)
        # giou = -1/3, so the term is w_giou * (1 - (-1/3)) = (4/3) w_giou
        assert costs.entries[0, 0] == pytest.approx(3.0 * 4 / 3, abs=1e-9)

    def test_mask_count_mismatch(self):
        b = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValidationError):
            build_match_cost(*loss_arrays([(b, TokenLogits((0.0,)))], [gt(1, b)], []), 10, 10)


def loss(predictions, ground_truth, masks, *args, **kwargs):
    """``set_loss`` on the ``loss_arrays`` of the scalar inputs."""
    return set_loss(*loss_arrays(predictions, ground_truth, masks), *args, **kwargs)


class TestSetLoss:
    def test_perfect_predictions(self):
        boxes = [BoundingBox(10, 10, 30, 30), BoundingBox(50, 50, 70, 80)]
        preds = [(b, saturated_logits(2, i)) for i, b in enumerate(boxes)]
        gts = [gt(1, boxes[0]), gt(2, boxes[1])]
        masks = [[True, False], [False, True]]
        out = loss(preds, gts, masks, 100, 100)
        assert out.total < 1e-6
        assert not out.no_matches

    def test_no_predictions_flags_no_matches(self):
        gts = [gt(1, BoundingBox(0, 0, 10, 10))]
        out = loss([], gts, [[True]], 100, 100)
        assert out.l1 == 0.0
        assert out.giou_loss == 0.0
        assert out.contrastive == 0.0
        assert out.total == 0.0
        assert out.no_matches

    def test_no_ground_truth_counts_unmatched_contrastive(self):
        preds = [(BoundingBox(0, 0, 10, 10), TokenLogits((0.0, 0.0)))] * 2
        out = loss(preds, [], [], 100, 100)
        assert (out.l1, out.giou_loss, out.no_matches) == (0.0, 0.0, True)
        assert out.contrastive == 2 * token_alignment_cost(TokenLogits((0.0, 0.0)), [False] * 2)

    def test_composed_from_geometry_examples(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(0, 0, 20, 10)
        preds = [(a, saturated_logits(2, 0))]
        gts = [gt(1, b)]
        out = loss(preds, gts, [[True, False]], 100, 100)
        assert out.l1 == pytest.approx(0.15, abs=1e-9)
        assert out.giou_loss == pytest.approx(0.5, abs=1e-9)  # giou of the pair is 0.5
        assert out.contrastive < 1e-9

    def test_unmatched_prediction_contrastive_penalty(self):
        b = BoundingBox(0, 0, 10, 10)
        preds = [
            (b, saturated_logits(1, 0)),
            (BoundingBox(50, 50, 60, 60), TokenLogits((0.0,))),
        ]
        gts = [gt(1, b)]
        with_pen = loss(preds, gts, [[True]], 100, 100)
        without = loss(preds, gts, [[True]], 100, 100, count_unmatched_contrastive=False)
        assert with_pen.contrastive == pytest.approx(LN2, abs=1e-9)
        assert without.contrastive < 1e-9

    def test_normalized_by_gt_count(self):
        b1 = BoundingBox(0, 0, 10, 10)
        b2 = BoundingBox(20, 20, 30, 30)
        preds = [(b1, TokenLogits((0.0,)))]
        gts = [gt(1, b1), gt(2, b2)]
        out = loss(preds, gts, [[True], [True]], 100, 100)
        # One matched pair with ln 2 contrastive cost over two ground truths.
        assert out.contrastive == pytest.approx(LN2 / 2, abs=1e-9)

    def test_weight_linearity_under_fixed_assignment(self):
        rng = random.Random(5)
        preds = []
        gts = []
        masks = []
        for k in range(3):
            x = rng.uniform(0, 50)
            y = rng.uniform(0, 50)
            preds.append(
                (BoundingBox(x, y, x + 10, y + 10), saturated_logits(3, k))
            )
            gts.append(gt(k + 1, BoundingBox(x + 2, y + 1, x + 12, y + 11)))
            masks.append([i == k for i in range(3)])
        base = loss(preds, gts, masks, 100, 100, LossWeights(1.0, 1.0, 1.0))
        doubled = loss(preds, gts, masks, 100, 100, LossWeights(2.0, 1.0, 1.0))
        # The assignment is unchanged here (unique optimum), so the l1
        # component is identical and its weighted contribution doubles.
        assert doubled.l1 == pytest.approx(base.l1, rel=1e-12)
        assert doubled.total - doubled.giou_loss - doubled.contrastive == pytest.approx(
            2 * (base.total - base.giou_loss - base.contrastive), rel=1e-9
        )

    def test_total_is_exact_weighted_sum(self):
        b = BoundingBox(0, 0, 10, 10)
        weights = LossWeights(0.7, 1.3, 2.1)
        out = loss(
            [(b, TokenLogits((1.0, -1.0)))],
            [gt(1, BoundingBox(1, 1, 11, 11))],
            [[True, False]],
            100,
            100,
            weights,
        )
        assert out.total == (
            weights.l1 * out.l1 + weights.giou * out.giou_loss
            + weights.contrastive * out.contrastive
        )

    def test_loss_nonnegative(self):
        rng = random.Random(11)
        for _ in range(25):
            preds = []
            gts = []
            masks = []
            for k in range(rng.randint(0, 4)):
                x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
                preds.append(
                    (
                        BoundingBox(x0, y0, x0 + rng.uniform(1, 20), y0 + rng.uniform(1, 20)),
                        TokenLogits(tuple(rng.uniform(-5, 5) for _ in range(3))),
                    )
                )
            for k in range(rng.randint(0, 4)):
                x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
                gts.append(
                    gt(k + 1, BoundingBox(x0, y0, x0 + rng.uniform(1, 20), y0 + rng.uniform(1, 20)))
                )
                masks.append([rng.random() < 0.5 for _ in range(3)])
            out = loss(preds, gts, masks, 100, 100)
            assert out.total >= 0.0
