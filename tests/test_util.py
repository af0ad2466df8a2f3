"""Unit tests for the NumPy helpers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import repro.util
from repro.util import (
    expand_ranges,
    group_by_key,
    group_starts,
    index_dtype,
    stable_order,
)


class TestExpandRanges:
    def test_basic(self):
        out = expand_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty_counts(self):
        out = expand_ranges(np.array([5, 8, 20]), np.array([0, 2, 0]))
        assert out.tolist() == [8, 9]

    def test_all_empty(self):
        assert expand_ranges(np.array([1, 2]), np.array([0, 0])).size == 0

    def test_no_ranges(self):
        assert expand_ranges(np.array([]), np.array([])).size == 0

    def test_single_range(self):
        assert expand_ranges(np.array([7]), np.array([4])).tolist() == [7, 8, 9, 10]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=30,
        )
    )
    def test_matches_naive(self, ranges):
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        counts = np.array([r[1] for r in ranges], dtype=np.int64)
        expected = [x for s, c in ranges for x in range(s, s + c)]
        assert expand_ranges(starts, counts).tolist() == expected


class TestGroupStarts:
    def test_basic(self):
        keys = np.array([2, 2, 5, 7, 7, 7])
        uniq, starts = group_starts(keys)
        assert uniq.tolist() == [2, 5, 7]
        assert starts.tolist() == [0, 2, 3]

    def test_empty(self):
        uniq, starts = group_starts(np.array([], dtype=np.int64))
        assert uniq.size == 0 and starts.size == 0

    def test_single_group(self):
        uniq, starts = group_starts(np.array([4, 4, 4]))
        assert uniq.tolist() == [4] and starts.tolist() == [0]

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50))
    def test_matches_numpy_unique(self, values):
        keys = np.sort(np.asarray(values, dtype=np.int64))
        uniq, starts = group_starts(keys)
        exp_uniq, exp_starts = np.unique(keys, return_index=True)
        assert uniq.tolist() == exp_uniq.tolist()
        assert starts.tolist() == exp_starts.tolist()

    @pytest.mark.parametrize("block", [1, 2, 3])
    @given(values=st.lists(st.integers(min_value=0, max_value=9), max_size=40))
    def test_blocked_starts_equal_the_one_block_starts(self, block, values):
        """Found a few keys at a time — groups that straddle a block's
        edge, blocks of one key, a first block of one — the starts and
        unique keys are those of one block over all the keys, the keys'
        dtype kept."""
        keys = np.sort(np.asarray(values, dtype=np.uint32))
        exp_uniq, exp_starts = group_starts(keys)
        with mock.patch.object(repro.util, "_STARTS_BLOCK", block):
            uniq, starts = group_starts(keys)
        assert uniq.dtype == np.uint32 and starts.dtype == np.int64
        assert uniq.tolist() == exp_uniq.tolist()
        assert starts.tolist() == exp_starts.tolist()

    def test_starts_over_a_strided_view_of_many_blocks(self):
        rng = np.random.default_rng(4)
        keys = np.sort(rng.integers(0, 3000, 5 * (1 << 16) + 7))
        pairs = np.zeros(2 * keys.size, dtype=np.uint32)
        pairs[1::2] = keys  # (as group_by_key reads the sorted buffer's high words)
        exp_uniq, exp_starts = np.unique(keys, return_index=True)
        uniq, starts = group_starts(pairs[1::2])
        assert uniq.tolist() == exp_uniq.tolist()
        assert starts.tolist() == exp_starts.tolist()


class TestStableOrder:
    @staticmethod
    def check(keys, bound):
        keys = np.asarray(keys, dtype=np.int64)
        order, sorted_keys = stable_order(keys, bound)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == np.int64 and sorted_keys.dtype == np.int64
        assert order.tolist() == expected.tolist()
        assert sorted_keys.tolist() == keys[expected].tolist()

    @pytest.mark.parametrize(
        "keys, bound",
        [
            ([], 0),
            ([5], 6),
            ([3, 3, 3, 3, 3], 4),
            ([2**31 - 1, 0, 2**31 - 1, 7], 2**31),
        ],
        ids=["empty", "singleton", "all-equal", "bound-2^31"],
    )
    def test_fixed_cases(self, keys, bound):
        self.check(keys, bound)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=200))
    def test_heavy_duplicates_match_stable_argsort(self, values):
        self.check(values, 5)

    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=80))
    def test_wide_keys_match_stable_argsort(self, values):
        self.check(values, 2**31)

    def test_does_not_modify_input(self):
        keys = np.array([4, 1, 4, 0], dtype=np.int64)
        stable_order(keys, 5)
        assert keys.tolist() == [4, 1, 4, 0]

    def test_negative_key_raises(self):
        with pytest.raises(ValueError, match=r"key -2 outside \[0, 10\)"):
            stable_order(np.array([3, -2, 5]), 10)

    def test_key_at_bound_raises(self):
        with pytest.raises(ValueError, match=r"key 10 outside \[0, 10\)"):
            stable_order(np.array([3, 10, 5]), 10)

    def test_unpackable_width_raises_instead_of_falling_back(self):
        # 62 key bits + 2 position bits do not fit a signed 64-bit word
        with pytest.raises(ValueError, match="63 bits"):
            stable_order(np.array([1, 2, 3]), 2**61)
        # one element needs no position bits, so the same bound fits
        self.check([2**61 - 1], 2**61)


class TestGroupByKey:
    """``group_by_key`` is ``argsort(keys, kind="stable")`` applied to the
    values and cut into groups, whichever of its two routes ran and in
    however many blocks the pairs arrived."""

    @staticmethod
    def check(keys, values, key_bound, value_bound, cuts=()):
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        exp_uniq, exp_starts = np.unique(keys[order], return_index=True)
        cuts = sorted(min(cut, keys.size) for cut in cuts)
        blocks = zip(np.split(keys, cuts), np.split(values, cuts), strict=True)
        uniq, starts, grouped = group_by_key(blocks, keys.size, key_bound, value_bound)
        assert uniq.dtype == starts.dtype == np.int64
        # the packed route's grouped values are its buffer's low words, the
        # narrowest of uint16/uint32 for the bound
        packed = key_bound <= 2**31 and value_bound <= 2**32
        narrowest = np.uint16 if value_bound <= 2**16 else np.uint32
        assert grouped.dtype == (narrowest if packed else np.int64)
        assert uniq.tolist() == exp_uniq.tolist()
        assert starts.tolist() == exp_starts.tolist()
        assert grouped.tolist() == values[order].tolist()

    @pytest.fixture()
    def routes(self, monkeypatch):
        """Calls that reached the ``stable_order`` route."""
        calls = []

        def spy(keys, bound):
            calls.append(bound)
            return stable_order(keys, bound)

        monkeypatch.setattr(repro.util, "stable_order", spy)
        return calls

    #: where the pairs are cut into blocks (empty blocks included)
    CUTS = st.lists(st.integers(0, 120), max_size=6)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 9)), max_size=120
        ).map(lambda pairs: sorted(pairs, key=lambda p: p[1])),
        CUTS,
    )
    def test_non_decreasing_values_with_duplicate_pairs(self, pairs, cuts):
        keys = [k for k, _ in pairs]
        values = [v for _, v in pairs]
        self.check(keys, values, 7, 10, cuts)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)), max_size=120), CUTS)
    def test_any_order_of_values(self, pairs, cuts):
        self.check([k for k, _ in pairs], [v for _, v in pairs], 7, 10, cuts)

    def test_a_descent_across_two_sorted_blocks_takes_the_stable_order_route(self, routes):
        self.check([1, 1, 0, 0], [4, 5, 2, 3], 2, 6, cuts=[2])
        assert routes == [2]

    def test_no_block_at_all_is_the_empty_grouping(self):
        for bounds in ((6, 10), (2**31 + 1, 10)):
            uniq, starts, grouped = group_by_key(iter(()), 0, *bounds)
            assert uniq.size == starts.size == grouped.size == 0

    def test_blocks_short_of_the_announced_count_raise(self):
        with pytest.raises(ValueError, match="3 pairs, not the 4 announced"):
            group_by_key([(np.array([1, 0, 1]), np.array([0, 1, 2]))], 4, 2, 3)

    def test_sorted_values_never_build_a_permutation(self, routes):
        self.check([5, 1, 5, 1, 0], [0, 0, 2, 2, 9], 6, 10)
        self.check([], [], 6, 10)
        self.check([2**31 - 1, 0, 2**31 - 1], [0, 1, 2**32 - 1], 2**31, 2**32)
        assert routes == []

    def test_unsorted_values_take_the_stable_order_route(self, routes):
        self.check([5, 1, 5, 1, 0], [3, 0, 2, 2, 9], 6, 10)
        assert routes == [6]

    def test_bounds_wider_than_a_word_take_the_stable_order_route(self, routes):
        self.check([2**31, 0, 7], [0, 1, 2], 2**31 + 1, 10, cuts=[1])
        self.check([4, 0, 7], [0, 1, 2**32], 8, 2**32 + 1)
        assert routes == [2**31 + 1, 8]

    @pytest.mark.parametrize("sort_values", [True, False], ids=["packed", "stable-order"])
    def test_uint32_values_group_like_int64_ones(self, routes, sort_values):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 50, 400)
        values = rng.integers(0, 2**32, 400, dtype=np.uint32)
        if sort_values:
            values.sort()
        wide = group_by_key([(keys, values.astype(np.int64))], 400, 50, 2**32)
        narrow = group_by_key([(keys, values)], 400, 50, 2**32)
        assert len(routes) == (0 if sort_values else 2)
        for got, expected in zip(narrow, wide, strict=True):
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

    def test_uint32_values_are_never_widened_to_a_full_column(self):
        """The packed route holds one 8-byte word per pair (plus byte
        masks); a widened copy of the values would be 8 more."""
        n = 1 << 16
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1000, n)
        values = np.sort(rng.integers(0, 500, n)).astype(np.uint32)
        tracemalloc.start()
        try:
            group_by_key([(keys, values)], n, 1000, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n

    @pytest.mark.parametrize("cuts", [(), (1, 3)], ids=["one-block", "three-blocks"])
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2**16 - 1)), max_size=60),
        sort_values=st.booleans(),
        bound=st.sampled_from([1, 7, 2**16]),
    )
    @example(pairs=[], sort_values=True, bound=1)
    @example(pairs=[(3, 2)], sort_values=False, bound=7)
    @example(pairs=[(5, v) for v in (4, 0, 9, 9, 1)], sort_values=False, bound=2**16)
    @example(pairs=[(5, v) for v in (4, 0, 9, 9, 1)], sort_values=True, bound=2**16)
    def test_the_uint16_route_is_the_uint32_route_as_integers(self, pairs, sort_values, bound, cuts):
        """Values that fit 16 bits group to the same integers whichever
        width their bound picks, on both routes (the empty input, a single
        pair and all-equal keys pinned as examples)."""
        if sort_values:
            pairs = sorted(pairs, key=lambda p: p[1])
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.int64) % bound
        blocks = lambda: zip(np.split(keys, cuts), np.split(values, cuts))  # noqa: E731
        cuts = [min(c, keys.size) for c in cuts]
        narrow = group_by_key(blocks(), keys.size, 7, bound)
        wide = group_by_key(blocks(), keys.size, 7, 2**16 + 1)
        assert narrow[2].dtype == np.uint16 and wide[2].dtype == np.uint32
        for got, expected in zip(narrow, wide, strict=True):
            assert got.astype(np.int64).tolist() == expected.astype(np.int64).tolist()
        self.check(keys, values, 7, bound, cuts)

    @pytest.mark.parametrize(
        "keys, values",
        [([], []), ([3], [2]), ([5] * 6, [4, 0, 9, 9, 1, 2]), ([5] * 6, [0, 1, 1, 2, 8, 9])],
        ids=["empty", "single-pair", "all-equal-keys-unsorted", "all-equal-keys-sorted"],
    )
    def test_the_width_flips_between_2_to_16_and_one_more(self, keys, values):
        for bound, width in ((2**16, np.uint16), (2**16 + 1, np.uint32)):
            assert index_dtype(bound) == width
            self.check(keys, values, 6, bound)  # (checks the dtype and the groups)
            pairs = [(np.array(keys, dtype=np.int64), np.array(values, dtype=np.int64))]
            grouped = group_by_key(pairs, len(keys), 6, bound)[2]
            assert grouped.dtype == width and grouped.flags.owndata

    def test_the_narrow_route_owns_what_it_returns_and_can_shrink(self):
        """The grouped values are a buffer of their own width, not a view
        of a wider one: a caller may ``resize`` them in place (``_Scan``
        does, dropping the segments a peer folds)."""
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 40, 3000)
        for bound, sort_values in ((300, True), (300, False), (70_000, True)):
            values = rng.integers(0, bound, 3000)
            if sort_values:
                values.sort()
            grouped = group_by_key([(keys, values)], 3000, 40, bound)[2]
            assert grouped.flags.owndata and grouped.base is None
            head = grouped[:100].copy()
            grouped.resize(100, refcheck=False)
            assert grouped.tolist() == head.tolist()

    def test_does_not_modify_inputs(self):
        keys = np.array([4, 1, 4, 0], dtype=np.int64)
        values = np.array([0, 1, 1, 3], dtype=np.int64)
        group_by_key([(keys, values)], 4, 5, 4)
        assert keys.tolist() == [4, 1, 4, 0] and values.tolist() == [0, 1, 1, 3]
