"""Stereo matching and point-cloud assembly tests."""

import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoremap import stereo
from shoremap.camera import CameraIntrinsics, StereoRig
from shoremap.errors import (
    DimensionMismatch,
    EmptyRange,
    InputError,
    SizeMismatch,
    WindowTooLarge,
)
from shoremap.stereo import (
    DisparityMap,
    GrayImage,
    PointCloud,
    RgbaImage,
    census_transform,
    cloud_from_disparity,
    match_disparity,
)
from synth import BeachScene


def _shifted_pair(rng, h, w, shift):
    base = rng.random((h, w + shift))
    return GrayImage(base[:, :w]), GrayImage(base[:, shift:w + shift])


class TestCensus:
    def test_window_validation(self):
        img = GrayImage(np.random.default_rng(0).random((20, 20)))
        with pytest.raises(WindowTooLarge):
            census_transform(img, 11)
        with pytest.raises(WindowTooLarge):
            census_transform(img, 4)
        with pytest.raises(WindowTooLarge):
            census_transform(GrayImage(np.zeros((3, 3))), 3)

    def test_constant_image_all_zero_patterns(self):
        img = GrayImage(np.full((12, 15), 0.42))
        assert census_transform(img, 5).max() == 0

    def test_bright_center_pattern(self):
        # 5x5 zeros with a bright center: the center's 8 bits are all set
        # (every neighbor darker); its neighbors see no darker neighbor
        # except... the corner enumeration is checked bit by bit below.
        px = np.zeros((5, 5))
        px[2, 2] = 1.0
        bits = census_transform(GrayImage(px), 3)
        assert bits[2, 2, 0] == 0xFF
        # A pixel next to the bright one: all its neighbors are >= itself,
        # so no bits set.
        assert bits[2, 1, 0] == 0

    def test_single_darker_neighbor_sets_matching_bit(self):
        # Window neighbors enumerate row-major; check two positions.
        px = np.full((5, 5), 0.5)
        px[1, 1] = 0.1   # upper-left neighbor of center -> bit 0
        assert census_transform(GrayImage(px), 3)[2, 2, 0] == 0b00000001
        px2 = np.full((5, 5), 0.5)
        px2[3, 3] = 0.1  # lower-right neighbor -> bit 7
        assert census_transform(GrayImage(px2), 3)[2, 2, 0] == 0b10000000

    def test_pattern_bit_count(self):
        img = GrayImage(np.random.default_rng(1).random((16, 16)))
        for window in (3, 5, 7, 9):
            bits = census_transform(img, window)
            assert bits.shape == (16, 16, (window * window - 1 + 7) // 8)

    def test_border_invalid(self):
        """The half-window border has no pattern: its bits stay zero, and
        no disparity is found where a cost window reaches into it."""
        rng = np.random.default_rng(2)
        bits = census_transform(GrayImage(rng.random((10, 10))), 5)
        assert not bits[:2].any() and not bits[-2:].any()
        assert not bits[:, :2].any() and not bits[:, -2:].any()
        assert bits[2:-2, 2:-2].any(axis=2).mean() > 0.9
        left, right = _shifted_pair(rng, 40, 60, 6)
        d = match_disparity(left, right, (3, 12), window=5).valid_mask()
        assert d[4:-4, 4 + 3:-4].any()
        assert not d[:4].any() and not d[-4:].any()
        assert not d[:, :4 + 3].any() and not d[:, -4:].any()


class TestMatchDisparity:
    def test_uniform_shift_recovered(self):
        rng = np.random.default_rng(42)
        left, right = _shifted_pair(rng, 80, 120, 7)
        d = match_disparity(left, right, (1, 20), window=5)
        v = d.valid_mask()
        assert v.mean() > 0.5
        frac = (np.abs(d.values[v] - 7.0) <= 0.5).mean()
        assert frac >= 0.95

    def test_textureless_mostly_invalid(self):
        img = GrayImage(np.full((40, 60), 0.5))
        d = match_disparity(img, img, (1, 20), window=5)
        assert (~d.valid_mask()).mean() >= 0.90

    def test_empty_range(self):
        img = GrayImage(np.random.default_rng(0).random((30, 40)))
        with pytest.raises(EmptyRange):
            match_disparity(img, img, (5, 5), window=5)
        with pytest.raises(EmptyRange):
            match_disparity(img, img, (-1, 5), window=5)

    def test_size_mismatch(self):
        rng = np.random.default_rng(0)
        a = GrayImage(rng.random((30, 40)))
        b = GrayImage(rng.random((30, 41)))
        with pytest.raises(SizeMismatch):
            match_disparity(a, b, (1, 10), window=5)

    def test_values_within_declared_range(self):
        rng = np.random.default_rng(43)
        left, right = _shifted_pair(rng, 60, 90, 5)
        d = match_disparity(left, right, (2, 12), window=5)
        v = d.values[d.valid_mask()]
        assert v.min() >= 2.0
        assert v.max() <= 12.0


# Reference: the whole-image matcher with int64 cost volumes that the
# strip-wise uint16 matcher replaced, copied unchanged apart from names and
# the census border, which it masks itself: pixels within half a window of
# the image border carry no pattern.
_ORACLE_BIG = np.int64(1) << 40
# The oracle's own popcount table: it shares no kernel with the matcher.
_ORACLE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint16)


def _oracle_border_mask(h, w, window):
    half = window // 2
    valid = np.zeros((h, w), dtype=bool)
    valid[half: h - half, half: w - half] = True
    return valid


def _oracle_box_sum(img, half):
    k = 2 * half + 1
    padded = np.pad(np.asarray(img, dtype=np.int64), half)
    c = padded.cumsum(axis=0).cumsum(axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    h, w = img.shape
    return (
        c[k: k + h, k: k + w]
        - c[0:h, k: k + w]
        - c[k: k + h, 0:w]
        + c[0:h, 0:w]
    )


def _oracle_cost_volume(ref, other, valid, window, d_min, d_max, sign):
    h, w, _ = ref.shape
    half = window // 2
    full_window = (2 * half + 1) ** 2
    n_d = d_max - d_min + 1
    volume = np.full((h, w, n_d), _ORACLE_BIG, dtype=np.int64)
    for i, d in enumerate(range(d_min, d_max + 1)):
        shift = sign * d
        if shift <= 0:
            ref_sl = slice(-shift, w)
            oth_sl = slice(0, w + shift)
        else:
            ref_sl = slice(0, w - shift)
            oth_sl = slice(shift, w)
        if ref_sl.stop - ref_sl.start <= 0:
            continue
        xor = np.bitwise_xor(ref[:, ref_sl], other[:, oth_sl])
        raw = _ORACLE_POPCOUNT[xor].sum(axis=-1).astype(np.int64)
        ok = valid[:, ref_sl] & valid[:, oth_sl]
        agg = _oracle_box_sum(np.where(ok, raw, 0), half)
        count = _oracle_box_sum(ok, half)
        volume[:, ref_sl, i] = np.where(count == full_window, agg, _ORACLE_BIG)
    return volume


def _oracle_wta(volume):
    best = np.argmin(volume, axis=2)
    best_cost = np.take_along_axis(volume, best[:, :, None], axis=2)[:, :, 0]
    return best, best_cost


def _oracle_match(left, right, d_range, window):
    d_min, d_max = int(d_range[0]), int(d_range[1])
    census_l = census_transform(left, window)
    census_r = census_transform(right, window)
    h, w = left.pixels.shape
    border = _oracle_border_mask(h, w, window)

    vol_l = _oracle_cost_volume(census_l, census_r, border, window, d_min, d_max, -1)
    vol_r = _oracle_cost_volume(census_r, census_l, border, window, d_min, d_max, +1)
    best_l, cost_l = _oracle_wta(vol_l)
    best_r, _ = _oracle_wta(vol_r)

    n_d = d_max - d_min + 1
    valid = cost_l < _ORACLE_BIG

    idx = np.arange(n_d)
    away = np.abs(idx[None, None, :] - best_l[:, :, None]) > 1
    masked = np.where(away, vol_l, _ORACLE_BIG)
    other_best = masked.min(axis=2)
    has_alternative = away.any(axis=2)
    valid &= ~has_alternative | (cost_l < other_best)

    disp_int = best_l + d_min
    xs = np.arange(w)[None, :].repeat(h, axis=0)
    x_r = xs - disp_int
    in_bounds = x_r >= 0
    x_r_safe = np.clip(x_r, 0, w - 1)
    ys = np.arange(h)[:, None].repeat(w, axis=1)
    d_r = best_r[ys, x_r_safe] + d_min
    cost_r_there = np.take_along_axis(
        vol_r[ys, x_r_safe], (d_r - d_min)[:, :, None], axis=2
    )[:, :, 0]
    valid &= in_bounds & (np.abs(d_r - disp_int) <= 1) & (cost_r_there < _ORACLE_BIG)

    disp = disp_int.astype(np.float64)
    interior = valid & (best_l > 0) & (best_l < n_d - 1)
    if np.any(interior):
        c0 = np.take_along_axis(vol_l, best_l[:, :, None], axis=2)[:, :, 0]
        cm = np.take_along_axis(
            vol_l, np.maximum(best_l - 1, 0)[:, :, None], axis=2
        )[:, :, 0]
        cp = np.take_along_axis(
            vol_l, np.minimum(best_l + 1, n_d - 1)[:, :, None], axis=2
        )[:, :, 0]
        denom = (cm - 2 * c0 + cp).astype(np.float64)
        ok = interior & (denom > 0) & (cm < _ORACLE_BIG) & (cp < _ORACLE_BIG)
        delta = np.zeros_like(disp)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta[ok] = (cm - cp)[ok] / (2.0 * denom[ok])
        delta = np.clip(delta, -0.5, 0.5)
        disp = disp + np.where(ok, delta, 0.0)

    disp = np.clip(disp, d_min, d_max)
    disp[~valid] = np.nan
    return disp


def _match_in_strips(left, right, d_range, window, strip_rows):
    """match_disparity with its cost-cell budget set to strip_rows rows."""
    n_d = d_range[1] - d_range[0] + 1
    with mock.patch.object(stereo, "_STRIP_CELLS", strip_rows * left.width * n_d):
        return match_disparity(left, right, d_range, window).values


@st.composite
def _matcher_cases(draw):
    window = draw(st.sampled_from((3, 5, 7, 9)))
    h = draw(st.integers(window + 1, window + 14))
    w = draw(st.integers(window + 2, 40))
    d_min = draw(st.integers(0, (w - 2) // 2))
    d_max = draw(st.integers(d_min + 1, w - 1))
    shift = draw(st.integers(0, d_max + 1))
    levels = draw(st.sampled_from((0, 2, 5)))  # 0: continuous intensities
    strip_rows = draw(st.one_of(st.integers(1, 4), st.just(h), st.integers(1, h)))
    seed = draw(st.integers(0, 2 ** 16))
    return window, h, w, (d_min, d_max), shift, levels, strip_rows, seed


def _textured_pair(seed, h, w, shift, levels):
    base = np.random.default_rng(seed).random((h, w + shift))
    if levels:  # few grey levels: many equal costs, so argmin ties matter
        base = np.round(base * levels) / levels
    return GrayImage(base[:, :w]), GrayImage(base[:, shift:w + shift])


class TestStripMatcher:
    @settings(max_examples=60, deadline=None)
    @given(case=_matcher_cases())
    @example(case=(3, 4, 12, (0, 5), 2, 0, 1, 0))
    @example(case=(9, 10, 20, (0, 10), 3, 0, 1, 1))
    @example(case=(9, 10, 20, (1, 12), 4, 2, 3, 2))
    @example(case=(7, 30, 40, (2, 20), 6, 0, 4, 3))
    @example(case=(9, 10, 12, (0, 11), 0, 0, 1, 4))  # fewer than window valid rows
    @example(case=(3, 10, 12, (1, 11), 1, 2, 1, 5))  # widest shifts: too few columns
    def test_strips_equal_whole_image(self, case):
        """Any strip height, including one row and strip edges inside the
        invalid border rows, gives the whole-image matcher's map byte for
        byte."""
        window, h, w, d_range, shift, levels, strip_rows, seed = case
        left, right = _textured_pair(seed, h, w, shift, levels)
        expected = _oracle_match(left, right, d_range, window)
        got = _match_in_strips(left, right, d_range, window, strip_rows)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    def test_every_strip_height_on_shortest_image(self, window):
        h = window + 1
        left, right = _textured_pair(window, h, 30, 4, 0)
        expected = _oracle_match(left, right, (0, 12), window)
        for strip_rows in range(1, h + 1):
            got = _match_in_strips(left, right, (0, 12), window, strip_rows)
            assert got.tobytes() == expected.tobytes()

    def test_peak_memory_independent_of_height(self):
        """Doubling the height leaves the matcher's allocation peak nearly
        unchanged; whole-image cost volumes would double it."""
        def peak(h):
            left, right = _shifted_pair(np.random.default_rng(0), h, 160, 20)
            tracemalloc.start()
            try:
                match_disparity(left, right, (1, 65), window=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(480) <= 1.25 * peak(240)


@st.composite
def _halo_cases(draw):
    window = draw(st.sampled_from((3, 5, 7, 9)))
    h = draw(st.integers(window + 3, window + 24))
    w = draw(st.integers(window + 2, 40))
    d_min = draw(st.one_of(st.just(0), st.integers(1, (w - 2) // 2)))
    d_max = draw(st.integers(d_min + 1, w - 1))
    a = draw(st.integers(1, h - 2))  # the halo starts below the first row
    b = draw(st.integers(a + 1, h - 1))  # and ends above the last
    shift = draw(st.integers(0, d_max + 1))
    levels = draw(st.sampled_from((0, 2, 5)))
    seed = draw(st.integers(0, 2 ** 16))
    return window, h, w, (d_min, d_max), (a, b), shift, levels, seed


def _planes(census):
    """The matcher's plane-major copy (n_bytes, h, w) of census bits."""
    return np.ascontiguousarray(census.transpose(2, 0, 1))


def _as_uint16(costs):
    return np.where(costs == _ORACLE_BIG, int(stereo._BIG_COST), costs)


class TestRightVolume:
    @settings(max_examples=60, deadline=None)
    @given(case=_halo_cases())
    @example(case=(9, 14, 20, (0, 10), (1, 13), 3, 0, 0))  # 10 census bytes
    @example(case=(9, 24, 40, (2, 30), (1, 23), 5, 0, 1))  # d_min > 0, real costs
    @example(case=(5, 20, 30, (1, 29), (2, 17), 2, 2, 2))  # widest shifts
    @example(case=(3, 8, 12, (1, 11), (3, 4), 1, 0, 3))  # one-row halo
    def test_right_eye_read_from_left_volume(self, case):
        """Every plane of the one volume built per strip equals the left
        eye's volume built on its own, _BIG_COST border included; the
        winners read from it equal argmin's over the left eye's volume
        and over a right-eye volume built on its own, and so does the left
        eye's cost."""
        window, h, w, (d_min, d_max), (a, b), shift, levels, seed = case
        left, right = _textured_pair(seed, h, w, shift, levels)
        census_l = census_transform(left, window)[a:b]
        census_r = census_transform(right, window)[a:b]
        half = window // 2
        y0, y1 = max(half, a) - a, min(h - half, b) - a
        volume = stereo._cost_volume(
            _planes(census_l), _planes(census_r), window, y0, y1, d_min, d_max
        )
        border = _oracle_border_mask(h, w, window)[a:b]
        oracle_l = _oracle_cost_volume(
            census_l, census_r, border, window, d_min, d_max, sign=-1
        )
        oracle_r = _oracle_cost_volume(
            census_r, census_l, border, window, d_min, d_max, sign=+1
        )

        assert volume.dtype == np.uint16
        assert np.array_equal(volume, _as_uint16(oracle_l).transpose(2, 0, 1))
        best_l, cost_l, best_r = stereo._winner_take_all(volume, d_min)
        best_o, cost_o = _oracle_wta(oracle_l)
        assert np.array_equal(best_l, best_o)
        assert np.array_equal(cost_l, _as_uint16(cost_o))
        assert np.array_equal(best_r, _oracle_wta(oracle_r)[0])

    @pytest.mark.parametrize("flat", [True, False])
    def test_ties_keep_first_index(self, flat):
        """Where several disparities share the lowest cost, both eyes'
        winners are the first of them, as argmin's are. A flat pair ties
        every disparity; a pair of 3 grey levels repeating every 4
        columns, shifted by 3, ties disparities 3, 7, 11 and 15."""
        window, (d_min, d_max) = 5, (2, 16)
        if flat:
            left = right = GrayImage(np.full((14, 40), 0.5))
        else:
            tile = np.random.default_rng(5).integers(0, 3, (14, 4)) / 2
            base = np.tile(tile, 11)
            left, right = GrayImage(base[:, :40]), GrayImage(base[:, 3:43])
        census_l = census_transform(left, window)
        census_r = census_transform(right, window)
        h, w = left.pixels.shape
        half = window // 2
        volume = stereo._cost_volume(
            _planes(census_l), _planes(census_r), window, half, h - half,
            d_min, d_max,
        )
        border = _oracle_border_mask(h, w, window)
        best_l, _, best_r = stereo._winner_take_all(volume, d_min)
        for best, oracle in (
            (best_l, _oracle_cost_volume(
                census_l, census_r, border, window, d_min, d_max, sign=-1
            )),
            (best_r, _oracle_cost_volume(
                census_r, census_l, border, window, d_min, d_max, sign=+1
            )),
        ):
            real = oracle.min(axis=2) < _ORACLE_BIG
            ties = (oracle == oracle.min(axis=2, keepdims=True)).sum(axis=2) > 1
            assert (ties & real).sum() >= 20  # the case exercises real ties
            assert np.array_equal(best, _oracle_wta(oracle)[0])

    def test_one_cost_volume_per_strip(self, monkeypatch):
        calls = []
        cost_volume = stereo._cost_volume

        def counted(*args, **kwargs):
            calls.append(args)
            return cost_volume(*args, **kwargs)

        monkeypatch.setattr(stereo, "_cost_volume", counted)
        left, right = _textured_pair(0, 23, 30, 3, 0)
        _match_in_strips(left, right, (0, 12), 5, strip_rows=4)
        assert len(calls) == 6  # ceil(23 / 4) strips


class TestWordKernels:
    """The matcher's per-pixel kernels and its disparity bound against
    plain references."""

    def test_byte_popcounts_every_byte_value(self):
        words = np.arange(256, dtype=np.uint8).view(np.uint64).copy()
        stereo._byte_popcounts(words)
        assert np.array_equal(words.view(np.uint8), _ORACLE_POPCOUNT)

    @pytest.mark.parametrize("n_bytes", [1, 3, 6, 10])  # windows 3, 5, 7, 9
    def test_byte_popcounts_xor_blocks(self, n_bytes):
        """XOR blocks whose byte planes take every size mod 8 (3 x 1..8
        cells), padded with random bytes to whole words as _cost_volume
        pads them: every count and plane sum is the table's."""
        rng = np.random.default_rng(n_bytes)
        for cols in range(1, 9):
            shape = (n_bytes, 3, cols)
            a, b = (rng.integers(0, 256, shape, dtype=np.uint8) for _ in "ab")
            n = a.size
            words = rng.integers(0, 256, -(-n // 8) * 8, dtype=np.uint8).view(np.uint64)
            xor = words.view(np.uint8)[:n].reshape(shape)
            np.bitwise_xor(a, b, out=xor)
            expected = _ORACLE_POPCOUNT[a ^ b]
            stereo._byte_popcounts(words)
            assert np.array_equal(xor, expected)
            raw = np.add.reduce(xor, axis=0, dtype=np.uint16)
            assert np.array_equal(raw, expected.sum(axis=0))

    @staticmethod
    def _right_volume(volume, d_min):
        """The right eye's volume: plane i read d_min + i columns further
        right, _BIG_COST past the edge."""
        right = np.full_like(volume, stereo._BIG_COST)
        w = volume.shape[2]
        for i in range(volume.shape[0]):
            c = d_min + i
            right[i, :, : max(w - c, 0)] = volume[i, :, c:]
        return right

    @pytest.mark.parametrize("d_min", [0, 1, 4, 9])
    def test_winner_take_all_matches_argmin(self, d_min):
        """Hand-built volumes with ties, all-_BIG_COST columns and (for
        d_min > 0) right-eye columns that no plane reaches: both eyes'
        winners equal argmin's, first on ties, and index 0 where nothing
        beats _BIG_COST; the left eye's cost equals the minimum."""
        big = stereo._BIG_COST
        rng = np.random.default_rng(d_min)
        volume = rng.integers(0, 4, (7, 5, 12)).astype(np.uint16)  # many ties
        volume[:, :, 3] = big
        volume[:, 2, 6] = 6480
        volume[2:, 1, 8] = big
        volume[rng.random(volume.shape) < 0.2] = big
        best_l, cost_l, best_r = stereo._winner_take_all(volume, d_min)
        for best, vol in ((best_l, volume), (best_r, self._right_volume(volume, d_min))):
            assert np.array_equal(best, vol.argmin(axis=0))
            assert np.all(best[vol.min(axis=0) == big] == 0)
        assert np.array_equal(cost_l, volume.min(axis=0)) and cost_l.dtype == np.uint16
        assert np.all(best_l[:, 3] == 0) and np.all(cost_l[:, 3] == big)
        if d_min:
            assert np.all(best_r[:, volume.shape[2] - d_min:] == 0)

    def test_winner_take_all_index_bits(self):
        """The index takes the key's low 16 bits whole: a volume of 300
        planes whose lowest cost sits in the last plane."""
        volume = np.full((300, 2, 3), 5, dtype=np.uint16)
        volume[-1, 0, 0] = 4
        best_l, cost_l, _ = stereo._winner_take_all(volume, 0)
        assert best_l[0, 0] == 299 and cost_l[0, 0] == 4
        assert np.all(best_l.ravel()[1:] == 0)

    def test_disparity_count_bound(self, monkeypatch):
        """More than 2^16 disparities would wrap the winner keys' index:
        the range is refused before the census runs, so nothing large is
        allocated; exactly 2^16 passes the check."""
        class CensusRan(Exception):
            pass

        def census(*args):
            raise CensusRan

        monkeypatch.setattr(stereo, "census_transform", census)
        img = GrayImage(np.zeros((4, 65540)))
        with pytest.raises(EmptyRange, match="65536"):
            match_disparity(img, img, (0, 65539), window=3)
        with pytest.raises(EmptyRange):
            match_disparity(img, img, (3, 65539), window=3)
        with pytest.raises(CensusRan):
            match_disparity(img, img, (4, 65539), window=3)

    @pytest.mark.parametrize("kind", ["random", "checkerboard", "r", "g", "b"])
    def test_to_gray_equals_channel_mean(self, kind):
        rng = np.random.default_rng(3)
        px = np.zeros((37, 53, 4), dtype=np.uint8)
        if kind == "random":
            px[:] = rng.integers(0, 256, px.shape)
        elif kind == "checkerboard":
            px[..., :3] = (np.indices((37, 53)).sum(axis=0) % 2 * 255)[..., None]
        else:  # one channel alone, alpha set
            px[..., "rgb".index(kind)] = rng.integers(0, 256, (37, 53))
            px[..., 3] = 255
        expected = px[..., :3].astype(np.float64).mean(axis=2) / 255
        got = RgbaImage(px).to_gray().pixels
        assert got.tobytes() == expected.tobytes()


def _beach_pair():
    scene = BeachScene(seed=0, width=64, height=48)
    left = scene._to_rgba(scene.render(scene.t_left)[0]).to_gray()
    right = scene._to_rgba(scene.render(scene.t_right)[0]).to_gray()
    return (left, right), (1, 33), 5


def _random_shifted_pair():
    base = np.random.default_rng(11).random((40, 64 + 9))
    return (GrayImage(base[:, :64]), GrayImage(base[:, 9:73])), (0, 16), 7


# (pair, valid pixels, sha256 of the disparity values), recorded from the
# whole-image int64 matcher that the strip-wise one replaced.
PINNED_DISPARITIES = {
    "beach": (
        _beach_pair, 1400,
        "dbdcc57f9e764c97ef1d7fd540336c7cf37390b602b443bf056355d371bbc484",
    ),
    "shifted": (
        _random_shifted_pair, 1204,
        "2b7494d1065f75ae6c6f4e6e5e250b217a7e60fd341cf4129d0b1f8e82a8a3bb",
    ),
}


@pytest.mark.parametrize("strip_rows", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(PINNED_DISPARITIES))
def test_disparity_pinned_bit_for_bit(name, strip_rows):
    make, n_valid, digest = PINNED_DISPARITIES[name]
    (left, right), d_range, window = make()
    if strip_rows is None:
        values = match_disparity(left, right, d_range, window).values
    else:
        values = _match_in_strips(left, right, d_range, window, strip_rows)
    assert int(np.isfinite(values).sum()) == n_valid
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestCloudFromDisparity:
    def _rig(self, w=64, h=48):
        intr = CameraIntrinsics(
            fx=100.0, fy=100.0, cx=w / 2, cy=h / 2,
            image_width=w, image_height=h,
        )
        return StereoRig(intrinsics=intr, baseline=0.12)

    def _color(self, rng, w=64, h=48):
        px = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
        px[:, :, 3] = 255
        return RgbaImage(px)

    def test_uniform_disparity_plane(self):
        rig = self._rig()
        d_plane = rig.intrinsics.fx * rig.baseline  # disparity giving Z = 1
        values = np.full((48, 64), d_plane)
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        cloud = cloud_from_disparity(d, rig, self._color(np.random.default_rng(0)))
        assert len(cloud) == 48 * 64
        np.testing.assert_allclose(cloud.xyz[:, 2], 1.0, atol=1e-9)

    def test_z_max_removes_everything(self):
        rig = self._rig()
        values = np.full((48, 64), rig.intrinsics.fx * rig.baseline)
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        cloud = cloud_from_disparity(
            d, rig, self._color(np.random.default_rng(0)), z_max=0.5
        )
        assert len(cloud) == 0

    def test_invalid_produces_no_points(self):
        rig = self._rig()
        values = np.full((48, 64), np.nan)
        values[10, 20] = 8.0
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        cloud = cloud_from_disparity(d, rig, self._color(np.random.default_rng(1)))
        assert len(cloud) == 1

    def test_colors_bit_exact_from_reference(self):
        rng = np.random.default_rng(7)
        rig = self._rig()
        color = self._color(rng)
        values = np.full((48, 64), np.nan)
        pixels = [(5, 9), (30, 40), (47, 63)]
        for v, u in pixels:
            values[v, u] = 10.0
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        cloud = cloud_from_disparity(d, rig, color)
        assert len(cloud) == 3
        expected = np.stack([color.pixels[v, u] for v, u in pixels])
        assert np.array_equal(cloud.colors, expected)

    def test_z_max_monotonicity(self):
        rng = np.random.default_rng(8)
        rig = self._rig()
        values = rng.uniform(1.0, 15.0, (48, 64))
        values[rng.random((48, 64)) < 0.3] = np.nan
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        color = self._color(rng)
        sizes = [
            len(cloud_from_disparity(d, rig, color, z_max=z))
            for z in (0.5, 1.0, 2.0, 5.0, np.inf)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == int(d.valid_mask().sum())

    @pytest.mark.parametrize("z_max", [np.nan, 0.0, -1.0])
    def test_z_max_not_positive_refused(self, z_max):
        rig = self._rig()
        d = DisparityMap(
            values=np.full((48, 64), 5.0), min_disparity=0.0, max_disparity=20.0
        )
        with pytest.raises(InputError, match=f"z_max must be > 0, got {z_max:g}"):
            cloud_from_disparity(
                d, rig, self._color(np.random.default_rng(0)), z_max=z_max
            )

    def test_dimension_mismatch(self):
        rig = self._rig()
        d = DisparityMap(
            values=np.full((10, 10), 5.0), min_disparity=0.0, max_disparity=20.0
        )
        with pytest.raises(DimensionMismatch):
            cloud_from_disparity(d, rig, self._color(np.random.default_rng(0)))

    @pytest.mark.parametrize("term", ["k1", "k2", "k3", "p1", "p2"])
    def test_distortion_term_refused(self, term):
        """Rays are pinhole, so a rig whose lens has any distortion term is
        refused, with the term named, rather than back-projected."""
        rig = self._rig()
        intr = dataclasses.replace(rig.intrinsics, **{term: -0.01})
        values = np.full((48, 64), rig.intrinsics.fx * rig.baseline)
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        with pytest.raises(InputError, match=f"pinhole calibration; {term} not 0"):
            cloud_from_disparity(
                d, StereoRig(intr, rig.baseline), self._color(np.random.default_rng(0))
            )


class TestTypes:
    def test_gray_image_range_enforced(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.5, 1.5]]))

    def test_disparity_range_enforced(self):
        with pytest.raises(ValueError):
            DisparityMap(
                values=np.array([[25.0]]), min_disparity=0.0, max_disparity=20.0
            )

    def test_disparity_range_skips_non_finite(self):
        """NaN and +-inf are not valid disparities, so the range check
        skips them; a finite value out of range among them still raises."""
        values = np.array([[np.nan, np.inf], [-np.inf, 3.0]])
        d = DisparityMap(values=values, min_disparity=0.0, max_disparity=20.0)
        assert d.valid_mask().sum() == 1
        DisparityMap(values=np.full((2, 2), np.inf), min_disparity=0.0, max_disparity=20.0)
        for bad in (-0.5, 20.5):
            out = values.copy()
            out[1, 1] = bad
            with pytest.raises(ValueError):
                DisparityMap(values=out, min_disparity=0.0, max_disparity=20.0)

    def test_point_cloud_finite(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.array([[np.nan, 0, 0]]))
