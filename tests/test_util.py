"""Unit tests for the NumPy helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import expand_ranges, group_starts, stable_order


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
