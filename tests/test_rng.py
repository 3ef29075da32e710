import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitstream import Xorshift64Star, bulk_u64, bulk_uniform, derive


def test_sequential_determinism():
    a = [Xorshift64Star(42).next_u64() for _ in range(10)]
    b = [Xorshift64Star(42).next_u64() for _ in range(10)]
    assert a == b


def test_zero_seed_is_usable():
    rng = Xorshift64Star(0)
    draws = {rng.next_u64() for _ in range(100)}
    assert len(draws) == 100  # all-zero state would stick at zero


def test_uniform_range():
    rng = Xorshift64Star(7)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_uniform_in_bounds():
    rng = Xorshift64Star(7)
    for _ in range(200):
        v = rng.uniform_in(-3.0, 5.0)
        assert -3.0 <= v < 5.0


def test_randint_bounds_and_degenerate():
    rng = Xorshift64Star(3)
    assert all(rng.randint(1) == 0 for _ in range(20))
    draws = [rng.randint(13) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 12


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xorshift64Star(1).randint(0)


def test_randint_bound_reaches_2_to_the_64():
    # past 2**64 no draw is below the rejection limit, so it would spin
    assert 0 <= Xorshift64Star(1).randint(2 ** 64) < 2 ** 64
    with pytest.raises(ValueError, match=r"2\*\*64"):
        Xorshift64Star(1).randint(2 ** 64 + 1)


def test_sample_without_replacement():
    rng = Xorshift64Star(11)
    out = rng.sample_without_replacement(50, 20)
    assert len(out) == 20
    assert len(set(out)) == 20
    assert all(0 <= v < 50 for v in out)
    full = Xorshift64Star(11).sample_without_replacement(10, 10)
    assert sorted(full) == list(range(10))
    assert Xorshift64Star(11).sample_without_replacement(5, 0) == []
    with pytest.raises(ValueError):
        rng.sample_without_replacement(5, 6)


def test_derive_separates_streams():
    base = 0x5EED
    seeds = {
        derive(base, "conv", 1),
        derive(base, "conv", 2),
        derive(base, "head", 1),
        derive(base, "image", 1),
        derive(base, 1, "conv"),
    }
    assert len(seeds) == 5
    assert derive(base, "conv", 1) == derive(base, "conv", 1)
    assert derive(base) != 0
    assert derive(0, "x") != 0


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_derive_never_returns_zero(seed):
    assert derive(seed, "tag") != 0


def test_bulk_matches_its_own_scaling():
    u = bulk_uniform(123, 1000)
    raw = bulk_u64(123, 1000)
    assert np.array_equal(u, (raw >> np.uint64(11)) * 2.0 ** -53)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_bulk_deterministic_and_prefix_stable():
    a = bulk_uniform(9, 500)
    b = bulk_uniform(9, 500)
    assert np.array_equal(a, b)
    # counter mode: the first k draws do not depend on n
    assert np.array_equal(bulk_uniform(9, 100), a[:100])
    assert not np.array_equal(bulk_uniform(10, 100), a[:100])


def test_bulk_is_not_degenerate():
    u = bulk_uniform(77, 4096)
    assert abs(u.mean() - 0.5) < 0.05
    assert len(np.unique(u)) > 4000
