"""Point-set registration tests: closed-form similarity estimation."""

import time

import numpy as np
import pytest

from shoremap.errors import CollinearPoints, InsufficientPairs
from shoremap.calibration import axis_angle_to_rotation
from shoremap.geometry import SimilarityTransform, apply_similarity_many
from shoremap.registration import (
    PointPairSet,
    _first_duplicate,
    apply_alignment,
    estimate_alignment,
)
from shoremap.stereo import PointCloud


def _pairs(src, tgt, ids=None):
    n = src.shape[0]
    ids = ids or tuple(f"p{i}" for i in range(n))
    return PointPairSet(ids=ids, source=src, target=tgt)


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestEstimateAlignment:
    def test_known_similarity_recovered(self):
        rng = np.random.default_rng(1)
        src = rng.random((8, 3)) * 5
        truth = SimilarityTransform(
            1.02, axis_angle_to_rotation(np.array([0.0, 0.0, np.deg2rad(30)])),
            np.array([5.0, -3.0, 0.2]),
        )
        tgt = apply_similarity_many(truth, src)
        rep = estimate_alignment(_pairs(src, tgt), with_scale=True)
        assert abs(rep.transform.scale - 1.02) < 1e-9
        np.testing.assert_allclose(rep.transform.rotation, truth.rotation, atol=1e-9)
        np.testing.assert_allclose(
            rep.transform.translation, truth.translation, atol=1e-9
        )
        assert rep.rms < 1e-9

    def test_small_offset_recovered(self):
        # Offsets at the few-decimeter scale typical of a hand-placed rig.
        rng = np.random.default_rng(2)
        src = rng.random((6, 3)) * 3
        truth = SimilarityTransform(
            1.0, _random_rotation(rng), np.array([0.27, -0.19, 0.08])
        )
        tgt = apply_similarity_many(truth, src)
        rep = estimate_alignment(_pairs(src, tgt), with_scale=False)
        np.testing.assert_allclose(
            rep.transform.translation, truth.translation, atol=1e-9
        )
        np.testing.assert_allclose(rep.transform.rotation, truth.rotation, atol=1e-9)
        assert rep.rms < 1e-9

    def test_identity_for_identical_sets(self):
        rng = np.random.default_rng(3)
        src = rng.random((5, 3))
        rep = estimate_alignment(_pairs(src, src.copy()))
        assert rep.rms == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.transform.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rep.transform.translation, 0.0, atol=1e-12)

    def test_reflection_yields_proper_rotation(self):
        rng = np.random.default_rng(4)
        src = rng.random((6, 3)) * 2
        mirrored = src.copy()
        mirrored[:, 2] = -mirrored[:, 2]
        rep = estimate_alignment(_pairs(src, mirrored))
        assert np.linalg.det(rep.transform.rotation) == pytest.approx(1.0, abs=1e-9)
        assert rep.rms > 0

    def test_det_plus_one_over_random_problems(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            src = rng.random((4, 3)) * 10
            tgt = rng.random((4, 3)) * 10
            try:
                rep = estimate_alignment(_pairs(src, tgt))
            except CollinearPoints:
                continue
            assert np.linalg.det(rep.transform.rotation) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_with_scale_off_forces_unit_scale(self):
        rng = np.random.default_rng(6)
        src = rng.random((5, 3))
        tgt = 3.0 * src + 1.0
        rep = estimate_alignment(_pairs(src, tgt), with_scale=False)
        assert rep.transform.scale == 1.0

    def test_rms_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(7)
        src = rng.random((6, 3)) * 4
        tgt = src + rng.normal(0, 0.1, src.shape)
        base = estimate_alignment(_pairs(src, tgt)).rms
        motion = SimilarityTransform(
            1.0, _random_rotation(rng), np.array([3.0, -1.0, 2.0])
        )
        moved = estimate_alignment(
            _pairs(apply_similarity_many(motion, src), apply_similarity_many(motion, tgt))
        ).rms
        assert moved == pytest.approx(base, rel=1e-9)

    def test_rms_not_worse_than_identity(self):
        rng = np.random.default_rng(8)
        src = rng.random((10, 3)) * 2
        tgt = src + rng.normal(0, 0.3, src.shape)
        rep = estimate_alignment(_pairs(src, tgt))
        identity_rms = float(
            np.sqrt((np.linalg.norm(src - tgt, axis=1) ** 2).mean())
        )
        assert rep.rms <= identity_rms + 1e-12

    def test_insufficient_pairs(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(InsufficientPairs):
            estimate_alignment(_pairs(src, src + 1))

    def test_collinear_sources(self):
        src = np.array([[0.0, 0, 0], [1.0, 1, 1], [2.0, 2, 2], [3.0, 3, 3]])
        with pytest.raises(CollinearPoints):
            estimate_alignment(_pairs(src, src + 1))

    def test_hand_computed_rms_fixture(self):
        # Fixed 5-pair fixture; the oracle recomputes the rms from the
        # reported transform with plain numpy, independent of the library
        # path, and the literal value is frozen from that computation.
        src = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 1.0],
            ]
        )
        tgt = src.copy()
        tgt[0] += (0.1, 0.0, 0.0)   # known misfit on one pair
        rep = estimate_alignment(_pairs(src, tgt), with_scale=False)
        t = rep.transform
        mapped = t.scale * (src @ t.rotation.T) + t.translation
        oracle = np.sqrt((np.linalg.norm(mapped - tgt, axis=1) ** 2).mean())
        assert rep.rms == pytest.approx(float(oracle), abs=1e-12)
        assert rep.rms == pytest.approx(0.03674276132967988, abs=1e-12)


class TestApplyAlignment:
    def _cloud(self, rng, n=20):
        colors = rng.integers(0, 256, (n, 4), dtype=np.uint8)
        return PointCloud(xyz=rng.random((n, 3)) * 5, colors=colors)

    def test_identity_bit_exact(self):
        cloud = self._cloud(np.random.default_rng(9))
        out = apply_alignment(cloud, SimilarityTransform(1.0, np.eye(3), np.zeros(3)))
        assert np.array_equal(out.xyz, cloud.xyz)
        assert np.array_equal(out.colors, cloud.colors)

    def test_translation_raises_z(self):
        cloud = self._cloud(np.random.default_rng(10))
        t = SimilarityTransform(1.0, np.eye(3), np.array([0.0, 0.0, 1.0]))
        out = apply_alignment(cloud, t)
        np.testing.assert_allclose(out.xyz[:, 2], cloud.xyz[:, 2] + 1.0, atol=1e-15)
        assert np.array_equal(out.colors, cloud.colors)

    def test_round_trip_with_inverse(self):
        rng = np.random.default_rng(11)
        cloud = self._cloud(rng)
        t = SimilarityTransform(1.3, _random_rotation(rng), rng.normal(size=3))
        moved = apply_alignment(cloud, t)
        # The inverse, estimated from the moved points back to the originals.
        inverse = estimate_alignment(_pairs(moved.xyz, cloud.xyz), with_scale=True)
        back = apply_alignment(moved, inverse.transform)
        np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-9)


UTM_SOURCES = np.array([
    [500000.0, 4000000.0, 12.0],
    [500002.0, 4000003.0, 12.0],
    [500040.0, 4000010.0, 11.0],
])


class TestPointPairSet:
    def test_duplicate_source_rejected(self):
        src = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 1, 1]])
        with pytest.raises(ValueError):
            _pairs(src, src + 1)

    def test_distinct_utm_scale_sources_accepted(self):
        # Sources 3.6 m apart at projected-world scale: distinct, though
        # within a relative tolerance of 1e-5 of each other.
        pairs = _pairs(UTM_SOURCES, UTM_SOURCES + 1.0)
        np.testing.assert_array_equal(pairs.source, UTM_SOURCES)

    def test_exact_utm_scale_duplicate_names_first_pair(self):
        src = UTM_SOURCES[[0, 1, 0, 1]]
        with pytest.raises(ValueError, match="ids 'p0', 'p2'"):
            _pairs(src, src + 1.0)


def _first_duplicate_loop(src):
    """The pairwise loop that the sort replaced: the first i < j, least
    i first, whose rows are equal."""
    for i in range(src.shape[0]):
        for j in range(i + 1, src.shape[0]):
            if np.array_equal(src[i], src[j]):
                return i, j
    return None


def _first_duplicate_groups(src):
    """The same pair from the first two indices of each group of equal
    rows (0.0 and -0.0 are one dict key), for sets too large to loop."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(src.tolist()):
        groups.setdefault(tuple(row), []).append(i)
    pairs = [tuple(g[:2]) for g in groups.values() if len(g) > 1]
    return min(pairs) if pairs else None


def _layouts(rng, n=2000):
    """UTM-scale sources with duplicates laid out in several ways."""
    base = rng.random((n, 3)) * [1e3, 1e3, 10.0] + [500000.0, 4000000.0, 0.0]
    yield "none", base.copy()
    for name, moves in [
        ("last two", [(n - 1, n - 2)]),
        ("first two", [(1, 0)]),
        ("far pair before near pair", [(1990, 5), (11, 10)]),
        ("triple and a later pair", [(1500, 40), (900, 40), (60, 41)]),
        ("many groups", [(j, j % 7 + 100) for j in range(1000, 2000, 3)]),
    ]:
        src = base.copy()
        for to, frm in moves:
            src[to] = src[frm]
        yield name, src
    src = base.copy()
    src[[17, 1200]] = [0.0, 5.0, -0.0], [-0.0, 5.0, 0.0]
    src[700, :2] = src[300, :2]  # equal in x and y only: distinct
    yield "signed zeros", src


class TestFirstDuplicate:
    def test_matches_pairwise_loop_on_small_sets(self):
        """Sets of up to 12 rows from a four-value alphabet, signed
        zeros included: the pair the loop raised on, or none."""
        rng = np.random.default_rng(4)
        for _ in range(400):
            src = rng.choice([0.0, -0.0, 1.0, 2.5], (int(rng.integers(0, 13)), 3))
            assert _first_duplicate(src) == _first_duplicate_loop(src)

    def test_2000_pairs_name_the_first_duplicate(self):
        """2,000 pairs in each layout: the error names the loop's first
        pair, and a set without duplicates builds in well under the
        seconds the quadratic loop took."""
        rng = np.random.default_rng(5)
        for name, src in _layouts(rng):
            ids = tuple(f"p{i}" for i in range(len(src)))
            want = _first_duplicate_groups(src)
            assert _first_duplicate(src) == want, name
            if want is None:
                t0 = time.perf_counter()
                PointPairSet(ids=ids, source=src, target=src + 1.0)
                assert time.perf_counter() - t0 < 1.0
                continue
            i, j = want
            with pytest.raises(ValueError, match=f"^duplicated source point for ids 'p{i}', 'p{j}'$"):
                PointPairSet(ids=ids, source=src, target=src + 1.0)
        assert _first_duplicate_groups(dict(_layouts(rng))["far pair before near pair"]) == (5, 1990)
