"""Core primitive tests: homographies, similarity transforms, grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoremap.calibration import axis_angle_to_rotation
from shoremap.errors import SingularMatrix
from shoremap.geometry import (
    GridGeometry,
    Homography,
    SimilarityTransform,
    apply_homography_many,
    apply_similarity_many,
    invert_homography,
)

# A translation by (5, 7) and its inverse.
SHIFT = np.array([[1.0, 0, 5.0], [0, 1.0, 7.0], [0, 0, 1.0]])
UNSHIFT = np.array([[1.0, 0, -5.0], [0, 1.0, -7.0], [0, 0, 1.0]])


class TestApplyHomography:
    def test_identity(self):
        p = apply_homography_many(Homography(np.eye(3)), np.array([[3.5, -2.0]]))[0]
        assert p.tolist() == [3.5, -2.0]

    def test_translation(self):
        p = apply_homography_many(Homography(SHIFT), np.array([[0.0, 0.0]]))[0]
        assert p.tolist() == [5.0, 7.0]

    def test_diagonal_scaling(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        p = apply_homography_many(h, np.array([[1.5, -1.0]]))[0]
        assert p.tolist() == [3.0, -2.0]

    def test_degenerate_projection(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0.0001]]))
        p = apply_homography_many(h, np.array([[-0.0001, 5.0]]))[0]
        assert np.isnan(p).all()

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        x=st.floats(min_value=-100, max_value=100),
        y=st.floats(min_value=-100, max_value=100),
    )
    def test_projective_scale_invariance(self, scale, x, y):
        m = np.array([[1.1, 0.2, 3.0], [-0.1, 0.9, 1.0], [1e-3, -2e-3, 1.0]])
        p = np.array([[x, y]])
        ax, ay = apply_homography_many(Homography(m), p)[0]
        bx, by = apply_homography_many(Homography(m * scale), p)[0]
        assert abs(ax - bx) < 1e-12 * max(1.0, abs(ax))
        assert abs(ay - by) < 1e-12 * max(1.0, abs(ay))


class TestInvertHomography:
    def test_identity(self):
        inv = invert_homography(Homography(np.eye(3)))
        np.testing.assert_allclose(inv.h, np.eye(3), atol=1e-15)

    def test_translation_inverse(self):
        inv = invert_homography(Homography(SHIFT))
        np.testing.assert_allclose(inv.h, UNSHIFT, atol=1e-12)

    def test_round_trip_on_sampled_points(self):
        rng = np.random.default_rng(1)
        m = np.array([[1.2, 0.1, 5.0], [0.05, 0.9, -3.0], [1e-4, -2e-4, 1.0]])
        h = Homography(m)
        h_inv = invert_homography(h)
        for _ in range(100):
            p = rng.uniform(-50, 50, (1, 2))
            q = apply_homography_many(h_inv, apply_homography_many(h, p))
            assert np.abs(q - p).max() < 1e-9

    def test_singular_rejected_at_construction(self):
        with pytest.raises(SingularMatrix):
            Homography(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))

    def test_near_singular_rejected_at_inversion(self):
        m = np.eye(3)
        m[0, 0] = 1e-20  # det far below the 1e-12 floor but not exactly zero
        with pytest.raises(SingularMatrix):
            invert_homography(Homography(m))

    def test_normalized_h33(self):
        h = Homography(2.0 * np.eye(3))
        assert h.h[2, 2] == 1.0


class TestSimilarity:
    def test_identity(self):
        t = SimilarityTransform(1.0, np.eye(3), np.zeros(3))
        assert apply_similarity_many(t, [[1, 2, 3]]).tolist() == [[1.0, 2.0, 3.0]]

    def test_pure_scaling(self):
        t = SimilarityTransform(2.0, np.eye(3), np.zeros(3))
        assert apply_similarity_many(t, [[1, 1, 1]]).tolist() == [[2.0, 2.0, 2.0]]

    def test_rotation_about_z_with_offset(self):
        quarter_turn = axis_angle_to_rotation(np.array([0.0, 0.0, np.pi / 2]))
        t = SimilarityTransform(1.0, quarter_turn, np.array([0, 0, 5.0]))
        x, y, z = apply_similarity_many(t, [[1, 0, 0]])[0]
        assert abs(x) < 1e-12
        assert abs(y - 1.0) < 1e-12
        assert abs(z - 5.0) < 1e-12

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SimilarityTransform(-1.0, np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, np.eye(3) * 1.001, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, reflection, np.zeros(3))


class TestGridGeometry:
    def test_cell_centers_run_north_to_south(self):
        g = GridGeometry(origin_x=10.0, origin_y=20.0, cell_size=0.5, n_cols=4, n_rows=3)
        xs, ys = g.cell_centers()
        assert (xs[0], ys[0]) == (10.0, 20.0)
        assert (xs[3], ys[2]) == (11.5, 19.0)
        assert ys[0] > ys[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridGeometry(origin_x=0, origin_y=0, cell_size=0.0, n_cols=1, n_rows=1)
        with pytest.raises(ValueError):
            GridGeometry(origin_x=0, origin_y=0, cell_size=1.0, n_cols=0, n_rows=1)
        with pytest.raises(ValueError):
            GridGeometry(
                origin_x=0, origin_y=0, cell_size=1.0,
                n_cols=100_000, n_rows=100_000,
            )
