"""Peak extraction, count metrics, and localization matching."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heatloss import (
    BoxAnnotation,
    Grid,
    Peak,
    SceneAnnotation,
    SigmaParams,
    ValidationError,
    compute_metrics,
    count_image,
    extract_peaks,
    match_localizations,
    render_heatmap,
)
from helpers import brute_force_peaks


def serpentine(h, w, value=0.7):
    """Full rows on even lines, joined by one pixel at alternating ends."""
    values = np.zeros((h, w))
    values[::2] = value
    for y in range(1, h, 2):
        values[y, w - 1 if y % 4 == 1 else 0] = value
    return values


def spiral(n, value=0.7):
    """A 1-px wall winding inward from (0, 0) with 1-px corridors."""
    values = np.zeros((n, n))
    values[0, 0] = value
    y = x = 0
    lengths = [n - 1] * 3 + [m for m in range(n - 3, 0, -2) for _ in range(2)]
    for i, length in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            values[y, x] = value
    return values


def tied_grids(rng, per_shape=10):
    """Quantized grids (values k/4, so plateaus are common), square and thin."""
    for shape in ((16, 16), (1, 16), (16, 1), (2, 16), (16, 2)):
        for _ in range(per_shape):
            yield rng.integers(0, 5, size=shape) / 4.0


class TestExtractPeaks:
    def test_single_kernel_yields_single_center_peak(self):
        scene = SceneAnnotation(17, 17, (BoxAnnotation(8, 8, 5, 5),))
        heat = render_heatmap(scene, SigmaParams())
        peaks = extract_peaks(heat, window=3, threshold=0.3)
        assert peaks == (Peak(x=8, y=8, score=1.0),) and type(peaks) is tuple

    def test_all_zero_grid_has_no_peaks(self):
        assert len(extract_peaks(Grid(np.zeros((6, 6))), 3, 0.3)) == 0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            values = rng.random((16, 16))
            got = extract_peaks(Grid(values), window=3, threshold=0.3)
            expected = brute_force_peaks(values, window=3, threshold=0.3)
            assert [(p.y, p.x) for p in got] == expected
        for values in tied_grids(np.random.default_rng(75)):
            got = extract_peaks(Grid(values), window=3, threshold=0.3)
            assert [(p.y, p.x) for p in got] == brute_force_peaks(values, 3, 0.3)
            assert count_image(Grid(values), 3, 0.3) == len(got)  # counts without Peak objects

    def test_matches_brute_force_for_larger_windows(self):
        rng = np.random.default_rng(72)
        for window in (5, 7):
            values = rng.random((16, 16))
            got = extract_peaks(Grid(values), window=window, threshold=0.2)
            assert [(p.y, p.x) for p in got] == brute_force_peaks(values, window, 0.2)
        for window in (3, 5, 7):
            for values in tied_grids(np.random.default_rng(76 + window)):
                got = extract_peaks(Grid(values), window=window, threshold=0.2)
                assert [(p.y, p.x) for p in got] == brute_force_peaks(values, window, 0.2)

    def test_plateau_keeps_lexicographically_smallest(self):
        values = np.zeros((4, 5))
        values[1, 1:4] = 0.8  # flat ridge: one plateau, one peak
        peaks = extract_peaks(Grid(values), 3, 0.3)
        assert [(p.x, p.y) for p in peaks] == [(1, 1)]

    def test_plateau_linked_through_non_candidates(self):
        # equal-valued row whose middle pixels are shadowed by a higher value
        values = np.zeros((2, 5))
        values[0, :] = 0.5
        values[1, 2] = 0.6
        peaks = extract_peaks(Grid(values), 3, 0.3)
        coords = [(p.x, p.y) for p in peaks]
        assert (2, 1) in coords  # the isolated higher pixel
        assert coords.count((0, 0)) == 1 and (4, 0) not in coords

    def test_separate_plateaus_stay_separate(self):
        values = np.zeros((3, 7))
        values[1, 1] = values[1, 5] = 0.9
        peaks = extract_peaks(Grid(values), 3, 0.5)
        assert [(p.x, p.y) for p in peaks] == [(1, 1), (5, 1)]

    def test_threshold_filters_low_maxima(self):
        values = np.zeros((5, 5))
        values[2, 2] = 0.25
        assert len(extract_peaks(Grid(values), 3, 0.3)) == 0
        assert len(extract_peaks(Grid(values), 3, 0.2)) == 1

    def test_scores_meet_threshold(self):
        rng = np.random.default_rng(73)
        values = rng.random((12, 12))
        peaks = extract_peaks(Grid(values), 3, 0.4)
        assert all(p.score >= 0.4 for p in peaks)

    def test_monotone_rescaling_preserves_peaks(self):
        rng = np.random.default_rng(74)
        values = rng.random((14, 14))
        base = extract_peaks(Grid(values), 3, 0.3)
        squared = extract_peaks(Grid(values**2), 3, 0.3**2)
        assert [(p.x, p.y) for p in base] == [(p.x, p.y) for p in squared]

    def test_huge_window_equals_the_whole_grid_window(self):
        g = Grid(np.random.default_rng(79).integers(0, 5, (5, 9)) / 4.0)
        assert extract_peaks(g, 10**6 + 1) == extract_peaks(g, 2 * 9 - 1)
        assert count_image(g, 10**6 + 1) == count_image(g, 2 * 9 - 1)

    def test_invalid_parameters_rejected(self):
        g = Grid(np.zeros((4, 4)))
        for find in (extract_peaks, count_image):
            with pytest.raises(ValidationError):
                find(g, window=4, threshold=0.3)
            with pytest.raises(ValidationError):
                find(g, window=1, threshold=0.3)
            with pytest.raises(ValidationError):
                find(g, window=3, threshold=0.0)
            with pytest.raises(ValidationError):
                find(Grid(np.full((3, 3), 2.0)), window=3, threshold=0.3)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    values=st.tuples(st.sampled_from([3, 4]), st.integers(1, 40), st.integers(1, 40)).flatmap(
        lambda kh: arrays(np.int64, kh[1:], elements=st.integers(0, kh[0]), fill=st.nothing()).map(lambda a, k=kh[0]: a / k)
    ),
    window=st.sampled_from([3, 5, 7]),
    threshold=st.sampled_from([0.2, 0.3, 0.5, 0.7, 0.99]),
)
def test_plateau_labelling_equals_brute_force(values, window, threshold):
    """Quantized grids (k/3, k/4) are full of plateaus of every shape."""
    got = extract_peaks(Grid(values), window, threshold)
    assert [(p.y, p.x) for p in got] == brute_force_peaks(values, window, threshold)
    assert count_image(Grid(values), window, threshold) == len(got)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([4, 16, 256]),
    window=st.integers(4, 16).map(lambda k: 2 * k + 1) | st.sampled_from([63, 65, 1023, 10**6 + 1]),
    threshold=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_large_windows_equal_brute_force(seed, levels, window, threshold):
    """Quantized grids of 1 to 40 a side at windows 9 to 33, and at windows wider than the grid.

    The window max ends on a fold at offset ``window - s`` for the largest
    power of two ``s <= window``; windows 9 to 33 take every such offset
    from 1 to ``s - 1``.  On the finer grids most candidates sit below the
    grid's max, so each edge of the window decides some of them.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels + 1, rng.integers(1, 41, 2)) / levels
    got = extract_peaks(Grid(values), window, threshold)
    assert [(p.y, p.x) for p in got] == brute_force_peaks(values, window, threshold)


NEIGHBORS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    window=st.sampled_from([3, 5, 7]),
    threshold=st.sampled_from([0.1, 0.3, 0.5, 0.9]),
)
def test_continuous_grids_with_copied_neighbors_equal_brute_force(seed, share, window, threshold):
    """Random floats of 1 to 29 a side where a share of the pixels, in row-major
    order, copies one 8-neighbor's value.

    Plateaus then form at arbitrary levels, with untied candidates both above
    and below them, so the least candidate, whose value floors the labelled
    region, is sometimes on a plateau and sometimes alone.
    """
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 30, 2)
    values = rng.random((h, w))
    for y, x in zip(*np.nonzero(rng.random((h, w)) < share)):
        dy, dx = NEIGHBORS[rng.integers(8)]
        values[y, x] = values[min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)]
    got = extract_peaks(Grid(values), window, threshold)
    assert [(p.y, p.x) for p in got] == brute_force_peaks(values, window, threshold)
    assert count_image(Grid(values), window, threshold) == len(got)


class TestPlateauShapes:
    """Plateaus whose runs join only through long paths, diagonals, or not at all."""

    @staticmethod
    def coords(values):
        return [(p.y, p.x) for p in extract_peaks(Grid(values), 3, 0.3)]

    @pytest.mark.parametrize("values", [serpentine(63, 64), serpentine(64, 9), spiral(64), spiral(9)])
    def test_winding_plateau_has_one_peak_at_its_least_index(self, values):
        assert self.coords(values) == [(0, 0)] == brute_force_peaks(values, 3, 0.3)

    @pytest.mark.parametrize("upper, lower, expected", [
        (np.s_[1:3], np.s_[3:5], (1, 1)),  # the lower run's start looks up-left
        (np.s_[3:5], np.s_[1:3], (1, 3)),  # the upper run's start looks down-left
    ])
    def test_runs_joined_only_diagonally_form_one_plateau(self, upper, lower, expected):
        values = np.zeros((4, 6))
        values[1, upper] = values[2, lower] = 0.8
        assert self.coords(values) == [expected]

    @pytest.mark.parametrize("cells, expected", [
        # a run ending at x = w - 1 and an equal run starting at x = 0 below it
        (((0, np.s_[3:5]), (1, np.s_[0:2])), [(0, 3), (1, 0)]),
        # up-left of x = 0 is the end of the row two above: only a start at x > 0 looks there
        (((0, np.s_[3:5]), (2, np.s_[0:2])), [(0, 3), (2, 0)]),
        # down-left of x = 0 is the end of the same row: only a start at x > 0 looks there
        (((1, np.s_[0:2]), (2, np.s_[0:2]), (1, np.s_[4:5]), (2, np.s_[4:5])), [(1, 0), (1, 4)]),
    ])
    def test_runs_do_not_join_across_the_row_wrap(self, cells, expected):
        values = np.zeros((3, 5))
        for y, xs in cells:
            values[y, xs] = 0.8
        assert self.coords(values) == expected == brute_force_peaks(values, 3, 0.3)

    def test_background_plateau_with_spikes(self):
        """A fit's background: one plateau above the threshold, cut by spikes."""
        rng = np.random.default_rng(78)
        values = np.full((64, 64), 0.46839)
        spikes = rng.random(values.shape) < 0.02
        values[spikes] = rng.uniform(0.5, 1.0, int(spikes.sum()))
        got = self.coords(values)
        assert got == brute_force_peaks(values, 3, 0.3)
        assert sum(values[p] == 0.46839 for p in got) == 1

    def test_least_tied_candidate_below_a_ramp_of_row_plateaus(self):
        """The least candidates are the tied pair (0, 0)-(0, 1); rows y >= 52
        are plateaus valued above it, so they are labelled with it, each as its
        own plateau; of those only the last row holds candidates."""
        values = 0.4 + np.arange(512)[:, None] / 1024 + np.zeros(512)
        values[0, :2] = 0.45
        assert self.coords(values) == [(0, 0), (511, 0)] == brute_force_peaks(values, 3, 0.3)


class TestCountImage:
    def test_well_separated_kernels_count_exactly(self):
        boxes = tuple(BoxAnnotation(float(cx), float(cy), 3.0, 3.0)
                      for cx, cy in ((8, 8), (40, 8), (8, 40), (40, 40), (24, 24)))
        scene = SceneAnnotation(48, 48, boxes)
        heat = render_heatmap(scene, SigmaParams())
        assert count_image(heat) == 5

    def test_zero_grid_counts_zero(self):
        assert count_image(Grid(np.zeros((8, 8)))) == 0

    def test_translation_with_zero_padding_preserves_count(self):
        rng = np.random.default_rng(75)
        values = rng.random((10, 10))
        shifted = np.zeros((16, 16))
        shifted[3:13, 4:14] = values
        assert count_image(Grid(values)) == count_image(Grid(shifted))


class TestComputeMetrics:
    def test_worked_example(self):
        report = compute_metrics([(3, 4), (5, 4)])
        assert report.mae == 1.0 and report.rmse == 1.0 and report.m == 2

    def test_perfect_predictions(self):
        report = compute_metrics([(2, 2), (7, 7), (0, 0)])
        assert report.mae == 0.0 and report.rmse == 0.0

    def test_second_worked_example(self):
        report = compute_metrics([(0, 0), (10, 0)])
        assert report.mae == 5.0
        assert report.rmse == math.sqrt(50.0)
        assert report.rmse == pytest.approx(7.0710678, abs=1e-6)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(76)
        for _ in range(200):
            pairs = [
                (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            report = compute_metrics(pairs)
            assert report.rmse >= report.mae >= 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([])

    def test_rmse_past_the_float64_range_rejected(self):
        """A report holds finite metrics only; for integer errors e * e >= |e|, so the RMSE overflows first."""
        assert math.isfinite(compute_metrics([(10**154, 0), (3, 4)]).rmse)
        message = "the count errors' mean square overflows float64: the RMSE is not finite"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_metrics([(10**200, 0), (3, 4)])

    @pytest.mark.parametrize("pairs, message", [
        ([(-3, 2)], "per_image[0]: counts must be >= 0, got pred -3, truth 2"),
        ([(1, 1), (4, 4), (2, -1)], "per_image[2]: counts must be >= 0, got pred 2, truth -1"),
    ], ids=["pred", "truth"])
    def test_negative_count_rejected(self, pairs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_metrics(pairs)


class TestMatchLocalizations:
    scene = SceneAnnotation(
        64, 64, (BoxAnnotation(10, 10, 8, 8), BoxAnnotation(30, 30, 8, 8), BoxAnnotation(50, 10, 8, 8))
    )

    def test_exact_peaks_match_everything(self):
        peaks = tuple(Peak(int(b.cx), int(b.cy), 1.0) for b in self.scene.boxes)
        assert match_localizations(peaks, self.scene, 0.5) == (3, 0, 0)

    def test_no_peaks_all_missed(self):
        assert match_localizations((), self.scene, 0.5) == (0, 3, 0)

    @pytest.mark.parametrize("radius_factor", [0.0, -1.0, math.nan, math.inf])
    def test_radius_factor_rejected(self, radius_factor):
        with pytest.raises(ValidationError, match=f"^radius_factor must be > 0, got {radius_factor}$"):
            match_localizations((), self.scene, radius_factor)

    def test_distant_peaks_are_spurious(self):
        peaks = (Peak(0, 63, 0.9), Peak(63, 63, 0.9))
        assert match_localizations(peaks, self.scene, 0.5) == (0, 3, 2)

    def test_single_peak_between_two_boxes_matches_once(self):
        scene = SceneAnnotation(64, 64, (BoxAnnotation(10, 10, 30, 30), BoxAnnotation(20, 10, 30, 30)))
        peaks = (Peak(15, 10, 1.0),)
        matched, missed, spurious = match_localizations(peaks, scene, 0.5)
        assert (matched, missed, spurious) == (1, 1, 0)

    def test_conservation_identities_on_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n_boxes = int(rng.integers(0, 6))
            boxes = tuple(
                BoxAnnotation(float(rng.integers(0, 64)), float(rng.integers(0, 64)),
                              float(rng.uniform(2, 10)), float(rng.uniform(2, 10)))
                for _ in range(n_boxes)
            )
            scene = SceneAnnotation(64, 64, boxes)
            n_peaks = int(rng.integers(0, 6))
            peaks = tuple(
                Peak(int(rng.integers(0, 64)), int(rng.integers(0, 64)), float(rng.uniform(0.3, 1)))
                for _ in range(n_peaks)
            )
            matched, missed, spurious = match_localizations(peaks, scene, 0.75)
            assert matched + missed == n_boxes
            assert matched + spurious == n_peaks
