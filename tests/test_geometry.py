"""Core primitive tests: homographies, similarity transforms, grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoremap.errors import DegenerateProjection, SingularMatrix
from shoremap.geometry import (
    GridGeometry,
    Homography,
    Point2,
    SimilarityTransform,
    apply_homography,
    apply_similarity_many,
    compose_similarity,
    invert_homography,
    invert_similarity,
    rotation_about_z,
)


class TestApplyHomography:
    def test_identity(self):
        p = apply_homography(Homography.identity(), Point2(3.5, -2.0))
        assert p == Point2(3.5, -2.0)

    def test_translation(self):
        p = apply_homography(Homography.translation(5, 7), Point2(0, 0))
        assert p == Point2(5.0, 7.0)

    def test_diagonal_scaling(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        p = apply_homography(h, Point2(1.5, -1.0))
        assert p == Point2(3.0, -2.0)

    def test_degenerate_projection(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0.0001]]))
        with pytest.raises(DegenerateProjection):
            apply_homography(h, Point2(-0.0001, 5.0))

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        x=st.floats(min_value=-100, max_value=100),
        y=st.floats(min_value=-100, max_value=100),
    )
    def test_projective_scale_invariance(self, scale, x, y):
        m = np.array([[1.1, 0.2, 3.0], [-0.1, 0.9, 1.0], [1e-3, -2e-3, 1.0]])
        p = Point2(x, y)
        a = apply_homography(Homography(m), p)
        b = apply_homography(Homography(m * scale), p)
        assert abs(a.x - b.x) < 1e-12 * max(1.0, abs(a.x))
        assert abs(a.y - b.y) < 1e-12 * max(1.0, abs(a.y))


class TestInvertHomography:
    def test_identity(self):
        inv = invert_homography(Homography.identity())
        np.testing.assert_allclose(inv.h, np.eye(3), atol=1e-15)

    def test_translation_inverse(self):
        inv = invert_homography(Homography.translation(5, 7))
        np.testing.assert_allclose(inv.h, Homography.translation(-5, -7).h, atol=1e-12)

    def test_round_trip_on_sampled_points(self):
        rng = np.random.default_rng(1)
        m = np.array([[1.2, 0.1, 5.0], [0.05, 0.9, -3.0], [1e-4, -2e-4, 1.0]])
        h = Homography(m)
        h_inv = invert_homography(h)
        for _ in range(100):
            p = Point2(*rng.uniform(-50, 50, 2))
            q = apply_homography(h_inv, apply_homography(h, p))
            assert abs(q.x - p.x) < 1e-9
            assert abs(q.y - p.y) < 1e-9

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
        t = SimilarityTransform.identity()
        assert apply_similarity_many(t, [[1, 2, 3]]).tolist() == [[1.0, 2.0, 3.0]]

    def test_pure_scaling(self):
        t = SimilarityTransform(2.0, np.eye(3), np.zeros(3))
        assert apply_similarity_many(t, [[1, 1, 1]]).tolist() == [[2.0, 2.0, 2.0]]

    def test_rotation_about_z_with_offset(self):
        t = SimilarityTransform(1.0, rotation_about_z(np.pi / 2), np.array([0, 0, 5.0]))
        x, y, z = apply_similarity_many(t, [[1, 0, 0]])[0]
        assert abs(x) < 1e-12
        assert abs(y - 1.0) < 1e-12
        assert abs(z - 5.0) < 1e-12

    def test_compose_with_inverse_is_identity(self):
        t = SimilarityTransform(
            1.7, rotation_about_z(0.83), np.array([4.0, -2.0, 11.0])
        )
        ident = compose_similarity(invert_similarity(t), t)
        assert abs(ident.scale - 1.0) < 1e-9
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)

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
                n_cols=100_000, n_rows=100_000, cell_cap=1_000_000,
            )
