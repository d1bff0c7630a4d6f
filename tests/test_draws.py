"""The run's randomness source against exact oracles over numpy's raw words."""

import numpy as np
import pytest
from oracles import next_draws

from boolevo.draws import BLOCK_WORDS, Draws

SEEDS = (0, 7, 2**40 + 3)


def raw_words(seed, count):
    return np.random.default_rng(seed).bit_generator.random_raw(count).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_numpys_double_across_a_refill(seed):
    count = BLOCK_WORDS + 904
    draws = Draws(seed)
    got = [draws.uniform() for _ in range(count)]
    assert got == np.random.default_rng(seed).random(count).tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 50, 500, 1000])
def test_below_small_k_is_the_high_word_of_the_product(k):
    # rejection needs a low product below k: odds about 2**-50 per draw here
    count = BLOCK_WORDS + 100
    draws = Draws(11)
    got = [draws.below(k) for _ in range(count)]
    assert got == [(w * k) >> 64 for w in raw_words(11, count)]


def test_below_rejection_branch_matches_reference_loop():
    # k = 2**63 + 1 rejects low products below (2**64 - k) % k = 2**63 - 1,
    # so about half of all words
    k = 2**63 + 1
    threshold = (2**64 - k) % k
    words = iter(raw_words(5, 3 * BLOCK_WORDS))
    want = []
    rejected = 0
    for _ in range(BLOCK_WORDS):
        m = next(words) * k
        while m % 2**64 < threshold:
            rejected += 1
            m = next(words) * k
        want.append(m >> 64)
    draws = Draws(5)
    got = [draws.below(k) for _ in range(BLOCK_WORDS)]
    assert got == want
    assert all(0 <= value < k for value in got)
    assert BLOCK_WORDS // 3 < rejected < BLOCK_WORDS


def test_below_rejects_empty_and_oversized_ranges():
    draws = Draws(0)
    for k in (0, -3, 2**64 + 1):
        with pytest.raises(ValueError, match="below needs"):
            draws.below(k)
    assert 0 <= draws.below(2**64) < 2**64


@pytest.mark.parametrize("drawn", [0, 5, BLOCK_WORDS - 1, BLOCK_WORDS])
def test_a_refused_below_leaves_the_next_draw(drawn):
    # a bound over 2**64 is refused after a word is read; the word goes back
    draws, fresh = Draws(13), Draws(13)
    for _ in range(drawn):
        assert draws.below(9) == fresh.below(9)
    for k in (2**64 + 1, 0, 2**65):
        with pytest.raises(ValueError, match="below needs"):
            draws.below(k)
    assert [draws.below(1 << 62) for _ in range(3)] == [fresh.below(1 << 62) for _ in range(3)]


@pytest.mark.parametrize("length", [20, 64, 8192])
def test_bits_are_uint8_zeros_and_ones(length):
    bits = Draws(3).bits(length)
    assert bits.dtype == np.uint8 and bits.shape == (length,)
    assert set(np.unique(bits).tolist()) == {0, 1}
    # each raw word gives its bytes low first, each byte its bits high first
    words = raw_words(3, (length + 63) // 64)
    want = [(words[i // 64] >> (8 * (i % 64 // 8) + 7 - i % 8)) & 1 for i in range(length)]
    assert bits.tolist() == want


def test_sample_is_distinct_and_in_range():
    draws = Draws(4)
    for k, m in ((5, 5), (49, 2), (1000, 300)):
        picks = draws.sample(k, m).tolist()
        assert len(picks) == m == len(set(picks))
        assert all(0 <= pick < k for pick in picks)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_shuffle_of_a_row_view_is_the_gather_through_permutation(dtype):
    # the same Fisher-Yates draws in place as on a permuted arange, so the
    # same view and the same generator state after it
    for length in (1, 2, 20, 60, 512, 8192):
        rows = (np.arange(3 * length) * 7 % 251).reshape(3, length).astype(dtype)
        others = rows[[0, 2]].copy()
        draws, fresh = Draws(31), Draws(31)
        for start, stop in ((0, length), (length // 3, length - length // 4)):
            view = rows[1, start:stop]
            want = view[fresh.permutation(len(view))]
            draws.shuffle(view)
            assert view.dtype == dtype and np.array_equal(view, want)
        assert np.array_equal(rows[[0, 2]], others)
        assert next_draws(draws) == next_draws(fresh)


def _drained(seed, left):
    """A fresh ``Draws(seed)`` whose first block has ``left`` unread words."""
    draws = Draws(seed)
    for _ in range(BLOCK_WORDS - left):
        draws.below(2)
    assert len(draws._words) == left
    return draws


def _state(draws):
    return draws._words, draws._generator.bit_generator.state


@pytest.mark.parametrize("left", range(6))
def test_owed_uniforms_are_the_per_call_uniforms_across_a_refill(left):
    # the refill falls in uniform, at the head of below and, from three
    # words left, inside below's rejection loop: a bound just over 2**63
    # rejects about half its words
    owed, fresh = _drained(17, left), _drained(17, left)
    want = []
    for count in (3, 1, 4, 2, 5):
        owed.owe_uniforms(count)
        want += fresh.uniforms(count).tolist()
        assert owed.uniform() == fresh.uniform()
        assert owed.below(9) == fresh.below(9)
        assert owed.below(2**63 + 1) == fresh.below(2**63 + 1)
    assert _state(owed)[0] == _state(fresh)[0]
    got = owed.owed_uniforms()
    assert got.dtype == np.float64 and got.tolist() == want
    assert _state(owed) == _state(fresh)
    assert owed.owed_uniforms().tolist() == []  # a take empties the debt
    assert next_draws(owed) == next_draws(fresh)


def _shuffled(draws):
    rows = np.tile(np.arange(10), (2, 1))
    draws.shuffle(rows[1, 3:])
    return rows.tolist()


VECTOR_DRAWS = {
    "bits": lambda draws: draws.bits(70).tolist(),
    "uniforms": lambda draws: draws.uniforms(3).tolist(),
    "permutation": lambda draws: draws.permutation(9).tolist(),
    "shuffle": _shuffled,
    "sample": lambda draws: draws.sample(20, 4).tolist(),
}


@pytest.mark.parametrize("draw", list(VECTOR_DRAWS))
def test_a_vector_draw_draws_the_owed_uniforms_first(draw):
    owed, fresh = _drained(23, 3), _drained(23, 3)
    owed.owe_uniforms(5)
    want = fresh.uniforms(5).tolist()
    assert VECTOR_DRAWS[draw](owed) == VECTOR_DRAWS[draw](fresh)
    owed.owe_uniforms(2)
    want += fresh.uniforms(2).tolist()
    assert owed.owed_uniforms().tolist() == want
    assert _state(owed) == _state(fresh)
    assert next_draws(owed) == next_draws(fresh)


def test_same_seed_same_stream_across_scalar_and_vector_draws():
    def mixed(draws):
        return (
            [draws.below(9) for _ in range(BLOCK_WORDS + 10)],
            draws.uniforms(3).tolist(),
            draws.permutation(6).tolist(),
            _shuffled(draws),
            draws.bits(12).tolist(),
            draws.uniform(),
        )

    assert mixed(Draws(21)) == mixed(Draws(21))
    assert mixed(Draws(21)) != mixed(Draws(22))
