"""Combiners: associative, commutative reductions over message values.

A combiner is what Pregel's ``Combiner<ValT>`` is in the paper's Table I/II:
a binary function plus its identity.  Channels use the scalar ``fn`` when
combining one message at a time and the NumPy ``ufunc`` when combining whole
arrays (the scatter-combine channel's linear scan is a ``ufunc.reduceat``).

The monoid laws (associativity, commutativity, identity) are what make
receiver- and sender-side combining interchangeable; the property-based
tests assert them for all built-ins.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.runtime.serialization import Codec, FLOAT64, INT32, INT64

__all__ = [
    "Combiner",
    "make_combiner",
    "SUM_F64",
    "SUM_I64",
    "SUM_I32",
    "MIN_F64",
    "MIN_I64",
    "MIN_I32",
    "MAX_F64",
    "MAX_I64",
    "MAX_I32",
]


@dataclass(frozen=True)
class Combiner:
    """An associative+commutative binary operation with identity.

    Attributes
    ----------
    fn:
        Scalar binary function ``(a, b) -> a`` used by per-message paths.
    identity:
        Neutral element: ``fn(identity, x) == x``.
    codec:
        Wire codec of the combined value type.
    ufunc:
        Optional NumPy ufunc implementing the same operation for bulk
        combining (``np.add``, ``np.minimum``...).  When absent, channels
        fall back to the scalar function.
    name:
        Used in reprs and table output.
    """

    fn: Callable
    identity: object
    codec: Codec = FLOAT64
    ufunc: np.ufunc | None = None
    name: str = "combiner"

    def combine(self, a, b):
        return self.fn(a, b)

    def combine_array(self, values: np.ndarray) -> object:
        """Reduce a whole array to one value."""
        if values.size == 0:
            return self.identity
        if self.ufunc is not None:
            return self.ufunc.reduce(values)
        acc = self.identity
        for v in values:
            acc = self.fn(acc, v)
        return acc

    def reduceat(
        self, values: np.ndarray, starts: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Segmented reduction: combine ``values[starts[i]:starts[i+1]]``
        for each i (the scatter-combine linear scan of Fig. 5), into
        ``out`` when given."""
        if self.ufunc is not None:
            return self.ufunc.reduceat(values, starts, out=out)
        if out is None:
            out = np.empty(len(starts), dtype=self.codec.dtype)
        bounds = list(starts) + [len(values)]
        for i in range(len(starts)):
            out[i] = self.combine_array(values[bounds[i] : bounds[i + 1]])
        return out

    @property
    def is_selection(self) -> bool:
        """Whether the operation selects one of its operands, ``h(x, x) ==
        x`` (min, max), on a probe of the identity and a few small values;
        a sum is not one.  ``Propagation`` requires a selection, and
        ``ScatterCombine`` never combines one at the receiver."""
        probe = np.array([self.identity, 0, 1, 2, 3], dtype=self.codec.dtype)
        if self.ufunc is None:
            return all(self.fn(x, x) == x for x in probe)
        return bool((self.ufunc(probe, probe) == probe).all())

    def accumulate_at(self, target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
        """``target[index[i]] = fn(target[index[i]], values[i])`` — bulk
        receiver-side combining into per-vertex slots."""
        if self.ufunc is not None:
            self.ufunc.at(target, index, values)
        else:
            for i, v in zip(index, values):
                target[i] = self.fn(target[i], v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Combiner({self.name})"


def make_combiner(
    fn: Callable,
    identity,
    codec: Codec = FLOAT64,
    ufunc: np.ufunc | None = None,
    name: str = "custom",
) -> Combiner:
    """Construct a combiner (the paper's ``make_combiner(c_sum, 0.0)``)."""
    return Combiner(fn=fn, identity=identity, codec=codec, ufunc=ufunc, name=name)


_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min
_I32_MAX = int(np.iinfo(np.int32).max)
_I32_MIN = int(np.iinfo(np.int32).min)

# (named functions, not lambdas: a built-in pickles, so a program that
# holds one — a compiled Palgol spec — ships to a worker process)
SUM_F64 = Combiner(operator.add, 0.0, FLOAT64, np.add, "sum_f64")
SUM_I64 = Combiner(operator.add, 0, INT64, np.add, "sum_i64")
SUM_I32 = Combiner(operator.add, 0, INT32, np.add, "sum_i32")
MIN_F64 = Combiner(min, float("inf"), FLOAT64, np.minimum, "min_f64")
MIN_I64 = Combiner(min, _I64_MAX, INT64, np.minimum, "min_i64")
MIN_I32 = Combiner(min, _I32_MAX, INT32, np.minimum, "min_i32")
MAX_F64 = Combiner(max, float("-inf"), FLOAT64, np.maximum, "max_f64")
MAX_I64 = Combiner(max, _I64_MIN, INT64, np.maximum, "max_i64")
MAX_I32 = Combiner(max, _I32_MIN, INT32, np.maximum, "max_i32")
