"""The numpy stream facts build_catalog's bulk draws rely on.

build_catalog reads one block of raw PCG64 words and derives from it the
values that per-content Generator calls return. A numpy release that
changes one of these facts fails here, with the fact named, before it
shows as a pinned catalog digest that no longer matches.
"""

import numpy as np
import pytest

from hybridcache.catalog import CatalogConfig, build_catalog


def low_half(word):
    return word & 0xFFFFFFFF


def test_default_rng_is_pcg64():
    bit_generator = np.random.default_rng(1).bit_generator
    assert isinstance(bit_generator, np.random.PCG64), (
        "build_catalog assumes default_rng is PCG64, "
        f"but it is {type(bit_generator).__name__}"
    )


def test_a_span_of_one_reads_nothing():
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    assert rng.integers(0, 1) == 0
    assert rng.bit_generator.state == before, (
        "build_catalog assumes integers(0, 1) leaves the generator state unchanged"
    )


def test_bounded_draws_share_a_word_around_a_double():
    rng = np.random.default_rng(3)
    first, x, second = rng.integers(0, 5), rng.random(), rng.integers(0, 5)
    words = np.random.default_rng(3).bit_generator.random_raw(3)
    lemire = [(int(half) * 5) >> 32 for half in (low_half(words[0]), words[0] >> 32)]
    assert [first, second] == lemire, (
        "build_catalog assumes two integers(0, 5) draws read the low half and "
        "then the high half of one raw word, through Lemire's multiply-shift"
    )
    assert x == (words[1] >> 11) * 2.0**-53, (
        "build_catalog assumes random() between them reads the next whole word, "
        "as (w >> 11) * 2**-53"
    )
    assert rng.bit_generator.random_raw() == words[2], (
        "build_catalog assumes those three draws read two raw words"
    )


def test_a_span_above_2_to_the_32_is_rejected():
    # numpy draws such a span from a whole 64-bit word, not a buffered half
    rng = np.random.default_rng(4)
    word = np.random.default_rng(4).bit_generator.random_raw()
    assert rng.integers(0, 2**33) == word >> 31, (
        "numpy draws integers(0, 2**33) from one whole word"
    )
    with pytest.raises(ValueError, match="horizon"):
        build_catalog(CatalogConfig(library_size=10, horizon=2**32 + 1), seed=4)
