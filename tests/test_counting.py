"""Peak extraction, count metrics, and localization matching."""

import math

import numpy as np
import pytest

from heatloss import (
    BoxAnnotation,
    Grid,
    Peak,
    PeakSet,
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
        assert [(p.x, p.y, p.score) for p in peaks.peaks] == [(8, 8, 1.0)]

    def test_all_zero_grid_has_no_peaks(self):
        assert len(extract_peaks(Grid(np.zeros((6, 6))), 3, 0.3)) == 0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            values = rng.random((16, 16))
            got = extract_peaks(Grid(values), window=3, threshold=0.3)
            expected = brute_force_peaks(values, window=3, threshold=0.3)
            assert [(p.y, p.x) for p in got.peaks] == expected
        for values in tied_grids(np.random.default_rng(75)):
            got = extract_peaks(Grid(values), window=3, threshold=0.3)
            assert [(p.y, p.x) for p in got.peaks] == brute_force_peaks(values, 3, 0.3)

    def test_matches_brute_force_for_larger_windows(self):
        rng = np.random.default_rng(72)
        for window in (5, 7):
            values = rng.random((16, 16))
            got = extract_peaks(Grid(values), window=window, threshold=0.2)
            assert [(p.y, p.x) for p in got.peaks] == brute_force_peaks(values, window, 0.2)
        for window in (3, 5, 7):
            for values in tied_grids(np.random.default_rng(76 + window)):
                got = extract_peaks(Grid(values), window=window, threshold=0.2)
                assert [(p.y, p.x) for p in got.peaks] == brute_force_peaks(values, window, 0.2)

    def test_plateau_keeps_lexicographically_smallest(self):
        values = np.zeros((4, 5))
        values[1, 1:4] = 0.8  # flat ridge: one plateau, one peak
        peaks = extract_peaks(Grid(values), 3, 0.3)
        assert [(p.x, p.y) for p in peaks.peaks] == [(1, 1)]

    def test_plateau_linked_through_non_candidates(self):
        # equal-valued row whose middle pixels are shadowed by a higher value
        values = np.zeros((2, 5))
        values[0, :] = 0.5
        values[1, 2] = 0.6
        peaks = extract_peaks(Grid(values), 3, 0.3)
        coords = [(p.x, p.y) for p in peaks.peaks]
        assert (2, 1) in coords  # the isolated higher pixel
        assert coords.count((0, 0)) == 1 and (4, 0) not in coords

    def test_separate_plateaus_stay_separate(self):
        values = np.zeros((3, 7))
        values[1, 1] = values[1, 5] = 0.9
        peaks = extract_peaks(Grid(values), 3, 0.5)
        assert [(p.x, p.y) for p in peaks.peaks] == [(1, 1), (5, 1)]

    def test_threshold_filters_low_maxima(self):
        values = np.zeros((5, 5))
        values[2, 2] = 0.25
        assert len(extract_peaks(Grid(values), 3, 0.3)) == 0
        assert len(extract_peaks(Grid(values), 3, 0.2)) == 1

    def test_scores_meet_threshold(self):
        rng = np.random.default_rng(73)
        values = rng.random((12, 12))
        peaks = extract_peaks(Grid(values), 3, 0.4)
        assert all(p.score >= 0.4 for p in peaks.peaks)

    def test_monotone_rescaling_preserves_peaks(self):
        rng = np.random.default_rng(74)
        values = rng.random((14, 14))
        base = extract_peaks(Grid(values), 3, 0.3)
        squared = extract_peaks(Grid(values**2), 3, 0.3**2)
        assert [(p.x, p.y) for p in base.peaks] == [(p.x, p.y) for p in squared.peaks]

    def test_invalid_parameters_rejected(self):
        g = Grid(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            extract_peaks(g, window=4, threshold=0.3)
        with pytest.raises(ValidationError):
            extract_peaks(g, window=1, threshold=0.3)
        with pytest.raises(ValidationError):
            extract_peaks(g, window=3, threshold=0.0)
        with pytest.raises(ValidationError):
            extract_peaks(Grid(np.full((3, 3), 2.0)), window=3, threshold=0.3)


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


class TestMatchLocalizations:
    scene = SceneAnnotation(
        64, 64, (BoxAnnotation(10, 10, 8, 8), BoxAnnotation(30, 30, 8, 8), BoxAnnotation(50, 10, 8, 8))
    )

    def test_exact_peaks_match_everything(self):
        peaks = PeakSet(tuple(Peak(int(b.cx), int(b.cy), 1.0) for b in self.scene.boxes))
        assert match_localizations(peaks, self.scene, 0.5) == (3, 0, 0)

    def test_no_peaks_all_missed(self):
        assert match_localizations(PeakSet(()), self.scene, 0.5) == (0, 3, 0)

    def test_distant_peaks_are_spurious(self):
        peaks = PeakSet((Peak(0, 63, 0.9), Peak(63, 63, 0.9)))
        assert match_localizations(peaks, self.scene, 0.5) == (0, 3, 2)

    def test_single_peak_between_two_boxes_matches_once(self):
        scene = SceneAnnotation(64, 64, (BoxAnnotation(10, 10, 30, 30), BoxAnnotation(20, 10, 30, 30)))
        peaks = PeakSet((Peak(15, 10, 1.0),))
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
            peaks = PeakSet(tuple(
                Peak(int(rng.integers(0, 64)), int(rng.integers(0, 64)), float(rng.uniform(0.3, 1)))
                for _ in range(n_peaks)
            ))
            matched, missed, spurious = match_localizations(peaks, scene, 0.75)
            assert matched + missed == n_boxes
            assert matched + spurious == n_peaks
