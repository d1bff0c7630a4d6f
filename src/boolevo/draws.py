"""The one source of randomness of a run.

A :class:`Draws` wraps one ``numpy.random.default_rng(seed)``.  Scalar draws
(:meth:`~Draws.below`, :meth:`~Draws.uniform`) read raw 64-bit words from a
Python list that is refilled a block at a time, so each costs a fraction of
a scalar ``Generator`` call.  Vector draws (:meth:`~Draws.bits`,
:meth:`~Draws.uniforms`, :meth:`~Draws.permutation`, :meth:`~Draws.shuffle`,
:meth:`~Draws.sample`) go to the wrapped generator and its bit generator,
which the blocks share.

Uniforms can also be owed (:meth:`~Draws.owe_uniforms`) and taken later as
one array (:meth:`~Draws.owed_uniforms`).  Every read of the generator, a
refill, a vector draw or a take, goes through one gate,
:meth:`~Draws._source`, which first draws what is owed.  So the values are
the words that a ``uniforms`` call at each point of owing would have read,
and every later draw is the same.

``below`` is Lemire's exact bounded draw ("Fast random integer generation in
an interval", ACM TOMACS 2019) and ``uniform`` is numpy's own double, so
every draw is exactly uniform.  The stream is not the one that calling the
``Generator`` methods one by one would give.

The common case of ``below`` is one word times ``k``, whose high word is
the pick when the low word is at least ``k``.  Three hot loops take that
case inline: ``encodings._random_node`` once per tree node, and
``operators.mutate_bitstring`` and ``operators.crossover_bitstring`` for
each row's positions and cut.  They hand the rare lower products back to
``below`` with the word pushed back, so the words read and the picks are
the same.  Their coins are ``below(2)``, which never rejects and so is the
top bit of one word.
"""

from __future__ import annotations

import numpy as np

#: Raw words fetched per refill.  Part of the stream: vector draws read the
#: words after the current block, so another size changes every record.
BLOCK_WORDS = 4096

_WORD = 1 << 64
_LOW = _WORD - 1
_DOUBLE_UNIT = 2.0**-53


class Draws:
    """Every random decision of one run, replayable from ``seed``."""

    __slots__ = ("_generator", "_words", "_owed", "_settled")

    def __init__(self, seed) -> None:
        self._generator = np.random.default_rng(seed)
        self._words: list[int] = []  # unread words of the block, next one last
        self._owed = 0  # uniforms owed and not yet drawn
        self._settled: list[np.ndarray] = []  # uniforms owed and drawn, not yet taken

    def _source(self) -> np.random.Generator:
        """The wrapped generator, once it has drawn every owed uniform: the
        only way to it, so no read comes between a debt and its values."""
        if self._owed:
            self._settled.append(self._generator.random(self._owed))
            self._owed = 0
        return self._generator

    def _refill(self) -> None:
        raw = self._source().bit_generator.random_raw(BLOCK_WORDS)
        self._words.extend(raw[::-1].tolist())

    def below(self, k: int) -> int:
        """Uniform int in ``[0, k)``, for ``1 <= k <= 2**64``.

        A refused ``k`` leaves the unread words as they were, so the next
        scalar draw is the one it would have been.
        """
        if k < 1:
            raise ValueError(f"below needs 1 <= k <= 2**64, got {k!r}")
        words = self._words
        if not words:
            self._refill()
        word = words.pop()
        m = word * k
        if m & _LOW < k:
            # every low product is below a k over 2**64, so it is refused
            # here, off the common path
            if k > _WORD:
                words.append(word)
                raise ValueError(f"below needs 1 <= k <= 2**64, got {k!r}")
            # reject the (2**64 - k) % k low products that would bias the result
            threshold = (_WORD - k) % k
            while m & _LOW < threshold:
                if not words:
                    self._refill()
                m = words.pop() * k
        return m >> 64

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)``: the top 53 bits of one word."""
        words = self._words
        if not words:
            self._refill()
        return (words.pop() >> 11) * _DOUBLE_UNIT

    def bits(self, length: int) -> np.ndarray:
        """``length`` uniform 0/1 entries as uint8, unpacked from raw words.

        The words are read as little-endian bytes on every platform.
        """
        words = self._source().bit_generator.random_raw((length + 63) // 64)
        return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=length)

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` uniform float64 values in ``[0, 1)``."""
        return self._source().random(count)

    def owe_uniforms(self, count: int) -> None:
        """Owe ``count`` uniforms: the values that ``uniforms(count)`` would
        give here, taken with :meth:`owed_uniforms`.  Scalar draws from the
        current block do not read the generator, so they may come between."""
        self._owed += count

    def owed_uniforms(self) -> np.ndarray:
        """Every uniform owed since the last take, in the order owed, as one
        float64 array."""
        self._source()
        # nothing owed since the last take: an empty array
        values, self._settled = self._settled or [np.empty(0)], []
        return values[0] if len(values) == 1 else np.concatenate(values)

    def permutation(self, x):
        """A random permutation of ``range(x)`` for an int, else of the array ``x``."""
        return self._source().permutation(x)

    def shuffle(self, view: np.ndarray) -> None:
        """Reorder the 1-D array ``view`` in place.

        The same Fisher-Yates draws as ``permutation(len(view))``, so
        ``view`` ends as ``view[permutation(len(view))]`` would be, and the
        generator in the same state.
        """
        self._source().shuffle(view)

    def sample(self, k: int, m: int) -> np.ndarray:
        """``m`` distinct values from ``range(k)``, in random order."""
        return self._source().choice(k, size=m, replace=False)
