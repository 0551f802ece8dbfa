import numpy as np
import pytest

from growcl.rng import SeededRng


def test_same_seed_same_sequence():
    a = SeededRng(42).random(size=100)
    b = SeededRng(42).random(size=100)
    assert np.array_equal(a, b)


def test_different_substreams_differ():
    root = SeededRng(7)
    a = root.substream("data").random(size=50)
    b = root.substream("init").random(size=50)
    assert not np.array_equal(a, b)


def test_substream_is_call_order_independent():
    r1 = SeededRng(3)
    r1.random(size=10)
    a = r1.substream("gumbel").random(size=5)
    b = SeededRng(3).substream("gumbel").random(size=5)
    assert np.array_equal(a, b)


def test_nested_paths_are_stable():
    a = SeededRng(9).substream("task1").substream("growth").random(size=4)
    b = SeededRng(9, path=("task1", "growth")).random(size=4)
    assert np.array_equal(a, b)


def test_deep_substream_chain_matches_the_path():
    # a substream extends its parent's spawn key instead of rebuilding it
    path = ("task3", "gumbel", "epoch2", "layer/conv1", "draws")
    chained = SeededRng(11)
    for name in path:
        chained = chained.substream(name)
    direct = SeededRng(11, path)
    assert chained.path == direct.path
    assert np.array_equal(chained.random(size=8), direct.random(size=8))
    assert np.array_equal(chained.integers(0, 2**31, size=8), direct.integers(0, 2**31, size=8))


def test_known_pcg64_fixture():
    # frozen from numpy's PCG64 stream; guards against algorithm drift
    got = SeededRng(123).integers(0, 1000, size=4)
    expect = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(123, spawn_key=()))
    ).integers(0, 1000, size=4)
    assert np.array_equal(got, expect)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        SeededRng(2**64)
    with pytest.raises(ValueError):
        SeededRng(-1)
