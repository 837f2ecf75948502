import numpy as np
import pytest
import scipy.stats

from chargecent import kendall_tau

from reference import kendall_tau_naive


def test_fixed_examples():
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3, abs=0)


def test_naive_fixed_examples():
    assert kendall_tau_naive([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau_naive([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau_naive([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3, abs=0)


def test_ties_contribute_zero():
    assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)
    assert kendall_tau([1, 1], [1, 2]) == 0.0
    assert kendall_tau([1, 2], [5, 5]) == 0.0
    assert kendall_tau([3, 3], [7, 7]) == 0.0


def test_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 8, size=n).astype(float)
        z = rng.integers(0, 8, size=n).astype(float)
        assert kendall_tau(y, z) == kendall_tau(z, y)
        assert kendall_tau(np.exp(y), z) == kendall_tau(y, z)
        assert kendall_tau(y, 3 * z + 1) == kendall_tau(y, z)


def test_fast_equals_naive_with_and_without_ties():
    rng = np.random.default_rng(3)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        if trial % 2:
            y = rng.integers(0, 6, size=n).astype(float)
            z = rng.integers(0, 6, size=n).astype(float)
        else:
            y = rng.normal(size=n)
            z = rng.normal(size=n)
        assert kendall_tau(y, z) == kendall_tau_naive(y, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    # Before, [1, nan, 2, 3] against [1, 2, 3, 4] read 1/3 where the pair
    # formula reads 1/2: a NaN compares neither above nor below anything.
    with pytest.raises(ValueError, match="finite real numbers"):
        kendall_tau([1, bad, 2, 3], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="finite real numbers"):
        kendall_tau([1, 2, 3, 4], [1, 2, bad, 3], variant="b")
    with pytest.raises(ValueError, match="finite real numbers"):  # the reference read 1/2
        kendall_tau_naive([1, bad, 2, 3], [1, 2, 3, 4])


@pytest.mark.parametrize("bad", [["b", "a", "c"], [None, 1, 2], [1j, 2j, 3j], [b"a", b"b", b"c"]])
def test_non_numeric_input_is_rejected(bad):
    with pytest.raises(ValueError, match="finite real numbers"):
        kendall_tau(bad, [1, 2, 3])
    with pytest.raises(ValueError, match="finite real numbers"):
        kendall_tau([1, 2, 3], bad)
    with pytest.raises(ValueError, match="finite real numbers"):
        kendall_tau_naive([1, 2, 3], bad)


def test_integer_and_boolean_ranks_stay_exact():
    # Ranks past 2**53 are distinct as integers but not as floats.
    big = [2**62, 2**62 + 1, 2**62 + 2]
    assert kendall_tau(big, [3, 2, 1]) == -1.0
    assert kendall_tau(np.array(big, dtype=np.uint64), [1, 2, 3]) == 1.0
    assert kendall_tau([True, False, False], [3, 1, 2]) == 2 / 3
    # The reference too: it wrapped the uint64 differences and raised numpy's TypeError on bools.
    assert kendall_tau_naive(np.array(big, dtype=np.uint64), [1, 2, 3]) == 1.0
    assert kendall_tau_naive([True, False, False], [3, 1, 2]) == 2 / 3


def test_tau_b_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(3, 50))
        y = rng.integers(0, 5, size=n).astype(float)
        z = rng.integers(0, 5, size=n).astype(float)
        if np.all(y == y[0]) or np.all(z == z[0]):
            continue
        ref = scipy.stats.kendalltau(y, z, variant="b").statistic
        assert kendall_tau(y, z, variant="b") == pytest.approx(float(ref), abs=1e-12)


def test_tau_b_constant_rejected():
    with pytest.raises(ValueError):
        kendall_tau([1, 1, 1], [1, 2, 3], variant="b")


def test_input_validation():
    with pytest.raises(ValueError):
        kendall_tau([1], [1])
    with pytest.raises(ValueError):
        kendall_tau_naive([1], [1])
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2], variant="c")
