"""Ground-truth synthesis: kernel widths, heatmaps, masks, interpolation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatloss import (
    AnchorSet,
    BoxAnnotation,
    SceneAnnotation,
    SigmaParams,
    ValidationError,
    compute_sigma,
    interpolate_boxes,
    render_binary_map,
    render_heatmap,
    render_mask,
    sigma_from_sensing_factor,
)
from heatloss.ground_truth import TILE


class TestComputeSigma:
    def test_zero_eta_collapses_to_factor_over_eps(self):
        assert compute_sigma(BoxAnnotation(0, 0, 4, 6), SigmaParams(eta=0, eps_sigma=1)) == 9.0

    def test_worked_values(self):
        got = compute_sigma(BoxAnnotation(0, 0, 4, 6), SigmaParams(eta=1, eps_sigma=3))
        assert got == pytest.approx(9.0 * (1.0 + math.exp(-9.0)) / 3.0, abs=1e-15)
        assert got == pytest.approx(3.000370, abs=1e-6)
        got = compute_sigma(BoxAnnotation(0, 0, 2, 2), SigmaParams(eta=2, eps_sigma=1))
        assert got == pytest.approx(5.0 * (1.0 + 2.0 * math.exp(-5.0)), abs=1e-15)
        assert got == pytest.approx(5.067379, abs=1e-6)

    def test_strictly_increasing_in_sensing_factor(self):
        for eta in (0.0, 1.0, 2.0):
            for eps in (1.0, 3.0):
                params = SigmaParams(eta=eta, eps_sigma=eps)
                sigmas = [sigma_from_sensing_factor(d, params) for d in range(1, 102, 2)]
                assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    def test_small_object_boost_decays_to_one(self):
        params = SigmaParams(eta=2.0, eps_sigma=1.0)
        boost = [sigma_from_sensing_factor(d, params) / d for d in (1, 10, 30)]
        assert boost[0] > boost[1] > boost[2] > 1.0
        assert boost[2] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValidationError):
            BoxAnnotation(0, 0, -1, 4)
        with pytest.raises(ValidationError):
            BoxAnnotation(0, 0, float("nan"), 4)
        with pytest.raises(ValidationError):
            SigmaParams(eta=1, eps_sigma=0.0)
        with pytest.raises(ValidationError):
            sigma_from_sensing_factor(0.0, SigmaParams())


def _single_box_scene(cx=8.0, cy=8.0, w=4.0, h=4.0, size=17):
    return SceneAnnotation(size, size, (BoxAnnotation(cx, cy, w, h),))


def _per_box_maximum(scene, params, stride):
    """Reference heatmap: one full-grid exp kernel per box, combined by maximum."""
    out_h, out_w = -(-scene.height // stride), -(-scene.width // stride)
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(float)
    expected = np.zeros((out_h, out_w))
    for box in scene.boxes:
        s = sigma_from_sensing_factor(2.0 * min(box.w, box.h) / stride + 1.0, params)
        dx, dy = xs - box.cx / stride, ys - box.cy / stride
        expected = np.maximum(expected, np.exp(-(dx * dx + dy * dy) / (2 * s * s)))
    return expected


class TestRenderHeatmap:
    def test_center_pixel_is_one(self):
        heat = render_heatmap(_single_box_scene(), SigmaParams())
        assert heat.values[8, 8] == 1.0

    def test_half_maximum_radius(self):
        # pick eps so the kernel width makes the value at distance 5 exactly 1/2
        sigma_target = 5.0 / math.sqrt(2.0 * math.log(2.0))
        params = SigmaParams(eta=0.0, eps_sigma=9.0 / sigma_target)
        heat = render_heatmap(_single_box_scene(), params)
        assert heat.values[8, 13] == pytest.approx(0.5, abs=1e-12)

    def test_two_kernels_combine_by_maximum(self):
        scene = SceneAnnotation(
            24, 20, (BoxAnnotation(6, 9, 5, 7), BoxAnnotation(11, 10, 8, 6))
        )
        params = SigmaParams(eta=1.0, eps_sigma=3.0)
        np.testing.assert_array_equal(
            render_heatmap(scene, params).values, _per_box_maximum(scene, params, 1)
        )
        # up to 60 overlapping kernels: the renderer takes exp of the least
        # exponent, which must equal the per-box maximum bit for bit
        rng = np.random.default_rng(5)
        for trial in range(12):
            width, height = int(rng.integers(8, 49)), int(rng.integers(8, 49))
            boxes = []
            for _ in range(int(rng.integers(0, 61))):
                if trial % 2 == 0:
                    cx, cy = float(rng.integers(0, width)), float(rng.integers(0, height))
                else:
                    cx, cy = float(rng.uniform(0, width)), float(rng.uniform(0, height))
                boxes.append(BoxAnnotation(cx, cy, float(rng.uniform(1, 16)), float(rng.uniform(1, 16))))
            scene = SceneAnnotation(width, height, tuple(boxes))
            params = SigmaParams(eta=float(rng.choice([0.0, 1.0, 3.0])),
                                 eps_sigma=float(rng.choice([0.5, 3.0, 10.0])))
            for stride in (1, 2, 3):
                np.testing.assert_array_equal(
                    render_heatmap(scene, params, stride).values,
                    _per_box_maximum(scene, params, stride),
                )

    def test_values_in_unit_range(self):
        rng = np.random.default_rng(7)
        boxes = tuple(
            BoxAnnotation(float(rng.integers(0, 32)), float(rng.integers(0, 32)),
                          float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
            for _ in range(6)
        )
        heat = render_heatmap(SceneAnnotation(32, 32, boxes), SigmaParams())
        assert heat.is_unit_range()

    def test_empty_scene_is_all_zero(self):
        heat = render_heatmap(SceneAnnotation(5, 4, ()), SigmaParams())
        assert heat.shape == (4, 5)
        assert not heat.values.any()

    def test_stride_scales_grid_and_kernels(self):
        scene = SceneAnnotation(20, 20, (BoxAnnotation(10, 10, 6, 6),))
        heat = render_heatmap(scene, SigmaParams(), stride=2)
        assert heat.shape == (10, 10)
        assert heat.values[5, 5] == 1.0  # 10/2 lands on a pixel
        # kernel width follows the stride-scaled box: min side 6 -> 3
        sigma = sigma_from_sensing_factor(2.0 * 6.0 / 2.0 + 1.0, SigmaParams())
        assert heat.values[5, 6] == pytest.approx(math.exp(-1.0 / (2 * sigma * sigma)), abs=1e-15)

    def test_odd_dimensions_use_ceiling(self):
        heat = render_heatmap(SceneAnnotation(21, 9, ()), SigmaParams(), stride=4)
        assert heat.shape == (3, 6)


def _per_box_union(scene, stride):
    """Reference mask: one full-grid rectangle test per box, combined by union."""
    out_h, out_w = -(-scene.height // stride), -(-scene.width // stride)
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(float)
    expected = np.zeros((out_h, out_w), dtype=bool)
    for box in scene.boxes:
        expected |= (np.abs(xs - box.cx / stride) <= box.w / (2.0 * stride)) & (
            np.abs(ys - box.cy / stride) <= box.h / (2.0 * stride)
        )
    return expected.astype(float)


def _coordinate(n):
    """A centre coordinate in [0, n): on a pixel, on or beside a tile edge, on
    the grid's first or last pixel or its far edge, or off the integer grid."""
    on_tile_edge = st.tuples(st.integers(0, n // TILE), st.sampled_from([-1.0, -0.5, 0.0, 0.5])).map(
        lambda t: min(max(t[0] * TILE + t[1], 0.0), n - 1.0)
    )
    return st.one_of(
        st.integers(0, n - 1).map(float),
        on_tile_edge,
        st.sampled_from([0.0, n - 1.0, math.nextafter(n, 0.0)]),
        st.floats(0.0, n, exclude_max=True),
    )


@st.composite
def _scenes(draw):
    side = st.one_of(st.integers(1, 160), st.integers(65, 160))  # half the grids span 5+ tiles
    width, height, n = draw(side), draw(side), draw(st.integers(0, 80))
    sides = st.floats(0.05, 200.0)
    box = st.builds(BoxAnnotation, _coordinate(width), _coordinate(height), sides, sides)
    return SceneAnnotation(width, height, tuple(draw(st.lists(box, min_size=n, max_size=n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    scene=_scenes(),
    # eps_sigma = 1e3 makes kernels narrow enough that the far field underflows
    # to 0; at 1e-200, 2 sigma^2 overflows and every kernel is flat at 1
    params=st.builds(SigmaParams, st.sampled_from([0.0, 1.0, 3.0]),
                     st.sampled_from([1e-200, 0.05, 3.0, 50.0, 1e3])),
    stride=st.integers(1, 4),
)
def test_culled_renders_equal_full_grid_references(scene, params, stride):
    """Many 16x16 tiles: culling keeps every box that can be a pixel's nearest kernel."""
    np.testing.assert_array_equal(
        render_heatmap(scene, params, stride).values, _per_box_maximum(scene, params, stride)
    )
    np.testing.assert_array_equal(render_mask(scene, stride).values, _per_box_union(scene, stride))


class TestRenderMask:
    def test_rectangle_membership_inclusive(self):
        # box spanning exactly pixels 2..5 x 3..7
        scene = SceneAnnotation(10, 10, (BoxAnnotation(3.5, 5.0, 3.0, 4.0),))
        mask = render_mask(scene).values
        expected = np.zeros((10, 10))
        expected[3:8, 2:6] = 1.0
        np.testing.assert_array_equal(mask, expected)

    def test_union_of_overlapping_boxes(self):
        a = BoxAnnotation(4, 4, 4, 4)
        b = BoxAnnotation(6, 4, 4, 4)
        both = render_mask(SceneAnnotation(12, 12, (a, b))).values
        union = np.maximum(
            render_mask(SceneAnnotation(12, 12, (a,))).values,
            render_mask(SceneAnnotation(12, 12, (b,))).values,
        )
        np.testing.assert_array_equal(both, union)

    def test_duplicating_a_box_changes_nothing(self):
        box = BoxAnnotation(5, 5, 3, 5)
        once = render_mask(SceneAnnotation(12, 12, (box,))).values
        twice = render_mask(SceneAnnotation(12, 12, (box, box))).values
        np.testing.assert_array_equal(once, twice)

    def test_empty_scene(self):
        assert not render_mask(SceneAnnotation(6, 6, ())).values.any()

    def test_center_pixel_inside_mask_and_heatmap_peak(self):
        scene = _single_box_scene()
        mask = render_mask(scene)
        heat = render_heatmap(scene, SigmaParams())
        assert mask.values[8, 8] == 1.0
        assert heat.values[8, 8] == 1.0


class TestRenderBinaryMap:
    def test_identical_to_mask(self):
        rng = np.random.default_rng(3)
        boxes = tuple(
            BoxAnnotation(float(rng.integers(0, 16)), float(rng.integers(0, 16)),
                          float(rng.uniform(0.4, 6)), float(rng.uniform(0.4, 6)))
            for _ in range(4)
        )
        scene = SceneAnnotation(16, 16, boxes)
        np.testing.assert_array_equal(
            render_binary_map(scene).values, render_mask(scene).values
        )

    def test_subpixel_box_marks_single_pixel(self):
        scene = SceneAnnotation(8, 8, (BoxAnnotation(3.0, 4.0, 0.5, 0.5),))
        binary = render_binary_map(scene).values
        assert binary.sum() == 1.0
        assert binary[4, 3] == 1.0


class TestInterpolateBoxes:
    anchors = AnchorSet((BoxAnnotation(0, 0, 10, 10), BoxAnnotation(100, 0, 30, 30)))

    def test_symmetric_midpoint(self):
        (box,) = interpolate_boxes(self.anchors, [(50.0, 0.0)])
        assert (box.w, box.h) == (20.0, 20.0)
        assert (box.cx, box.cy) == (50.0, 0.0)

    def test_exact_at_anchor_center(self):
        (box,) = interpolate_boxes(self.anchors, [(0.0, 0.0)])
        assert (box.w, box.h) == (10.0, 10.0)

    def test_quarter_distance_weight(self):
        (box,) = interpolate_boxes(self.anchors, [(25.0, 0.0)])
        assert box.w == pytest.approx(15.0, abs=1e-12)
        assert box.h == pytest.approx(15.0, abs=1e-12)

    def test_single_anchor_copies_size(self):
        single = AnchorSet((BoxAnnotation(5, 5, 7, 9),))
        (box,) = interpolate_boxes(single, [(50.0, 40.0)])
        assert (box.w, box.h) == (7.0, 9.0)

    def test_width_height_interpolate_independently(self):
        anchors = AnchorSet((BoxAnnotation(0, 0, 10, 40), BoxAnnotation(10, 0, 20, 10)))
        (box,) = interpolate_boxes(anchors, [(5.0, 0.0)])
        assert box.w == pytest.approx(15.0)
        assert box.h == pytest.approx(25.0)

    def test_second_nearest_tie_prefers_earlier_anchor(self):
        anchors = AnchorSet(
            (BoxAnnotation(0, 0, 10, 10), BoxAnnotation(0, 10, 20, 20), BoxAnnotation(0, -10, 40, 40))
        )
        (box,) = interpolate_boxes(anchors, [(0.0, 0.0)])
        # query sits on the first anchor; size copied from it
        assert (box.w, box.h) == (10.0, 10.0)
        (box,) = interpolate_boxes(anchors, [(0.0, 2.0)])
        # nearest is anchor 0 (d=2); anchors 1 and 2 are 8 and 12 away
        assert box.w == pytest.approx(10.0 + 0.2 * 10.0)

    def test_equidistant_tie_for_second_uses_order(self):
        anchors = AnchorSet(
            (BoxAnnotation(1, 0, 10, 10), BoxAnnotation(0, 5, 20, 20), BoxAnnotation(0, -5, 40, 40))
        )
        (box,) = interpolate_boxes(anchors, [(0.0, 0.0)])
        # d = 1, 5, 5; second-nearest tie -> anchor 1
        t = 1.0 / 6.0
        assert box.w == pytest.approx(10.0 + t * 10.0, abs=1e-12)

    @pytest.mark.parametrize("cx_a, cx_b, side", [
        (-1e308, 1e308, 6.0),  # d_a + d_b overflows: the midpoint, not a copy of the nearest anchor
        (-1e308, 1.5e308, 5.6),  # t = 1e308 / 2.5e308 = 0.4
        (-10.0, 15.0, 5.6),  # the same weight at a finite sum
    ], ids=["overflowing_equal", "overflowing_unequal", "finite"])
    def test_weight_of_distances_whose_sum_overflows(self, cx_a, cx_b, side):
        anchors = AnchorSet((BoxAnnotation(cx_a, 0, 4, 4), BoxAnnotation(cx_b, 0, 8, 8)))
        (box,) = interpolate_boxes(anchors, [(0.0, 0.0)])
        assert (box.w, box.h) == (side, side)

    def test_rejects_non_finite_center(self):
        with pytest.raises(ValidationError):
            interpolate_boxes(self.anchors, [(float("inf"), 0.0)])

    def test_rejects_empty_and_duplicate_anchors(self):
        with pytest.raises(ValidationError):
            AnchorSet(())
        with pytest.raises(ValidationError):
            AnchorSet((BoxAnnotation(0, 0, 1, 1), BoxAnnotation(0, 0, 2, 2)))


class TestSceneValidation:
    def test_center_outside_bounds_rejected(self):
        with pytest.raises(ValidationError):
            SceneAnnotation(10, 10, (BoxAnnotation(10.0, 5.0, 2, 2),))

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            SceneAnnotation(0, 10, ())

    @pytest.mark.parametrize("build, message", [
        (lambda: BoxAnnotation(math.inf, 0.0, 2, 2), "box center must be finite, got (inf, 0.0)"),
        (lambda: BoxAnnotation(0.0, math.nan, 2, 2), "box center must be finite, got (0.0, nan)"),
        (lambda: SigmaParams(eta=-1.0), "eta must be finite and >= 0, got -1.0"),
        (lambda: SigmaParams(eta=math.inf), "eta must be finite and >= 0, got inf"),
        (lambda: render_heatmap(SceneAnnotation(4, 4, ()), SigmaParams(), stride=0), "stride must be >= 1, got 0"),
        (lambda: render_mask(SceneAnnotation(4, 4, ()), stride=-2), "stride must be >= 1, got -2"),
    ])
    def test_rejection_names_the_value(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
