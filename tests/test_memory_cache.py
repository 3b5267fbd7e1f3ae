"""Tests for the instruction cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import InstructionCache
from tests import oracles


class TestGeometry:
    def test_sets_computed(self):
        cache = InstructionCache(4096, 32, 2)
        assert cache.n_sets == 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            InstructionCache(1000, 32, 2)

    def test_block_index(self):
        cache = InstructionCache(4096, 32, 2)
        assert cache.block_index(0) == 0
        assert cache.block_index(31) == 0
        assert cache.block_index(32) == 1


class TestBehaviour:
    def test_first_access_misses(self):
        cache = InstructionCache()
        assert cache.access(0) is False
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = InstructionCache()
        cache.access(0)
        assert cache.access(4) is True  # same 32-byte block
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = InstructionCache(64, 32, 1)  # 2 sets, direct-mapped
        cache.access(0)       # set 0
        cache.access(64)      # set 0, evicts block 0
        assert cache.access(0) is False

    def test_associativity_retains_both(self):
        cache = InstructionCache(128, 32, 2)  # 2 sets, 2-way
        cache.access(0)
        cache.access(64)      # same set, second way
        assert cache.access(0) is True
        assert cache.access(64) is True

    def test_lru_order(self):
        cache = InstructionCache(64, 32, 2)  # 1 set, 2-way
        cache.access(0)
        cache.access(32)
        cache.access(0)       # refresh block 0
        cache.access(64)      # evicts block 1 (LRU), not block 0
        assert cache.access(0) is True
        assert cache.access(32) is False

    def test_flush(self):
        cache = InstructionCache()
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_contains_does_not_mutate(self):
        cache = InstructionCache()
        cache.access(0)
        accesses = cache.stats.accesses
        assert cache.contains(0) is True
        assert cache.stats.accesses == accesses

    def test_hit_ratio(self):
        cache = InstructionCache()
        for _ in range(4):
            cache.access(0)
        assert cache.stats.hit_ratio == pytest.approx(0.75)

    def test_miss_ratio(self):
        cache = InstructionCache()
        for address in (0, 4, 64, 0):
            cache.access(address)
        assert cache.stats.miss_ratio == pytest.approx(0.5)

    def test_empty_stats(self):
        cache = InstructionCache()
        assert cache.stats.hit_ratio == 0.0
        assert cache.stats.miss_ratio == 0.0


def _resident_tags(cache):
    """Each set's tags, least recently used first (``[]`` when empty)."""
    sets = cache._sets
    if isinstance(sets, list):
        sets = dict(enumerate(sets))
    return [list(sets.get(index, [])) for index in range(cache.n_sets)]


#: (operation, number): ``again`` re-accesses the last address used and
#: ``nearby`` accesses another byte of its block, the two ways a fetch
#: stream touches the block it touched last.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["access", "access", "again", "again", "nearby",
             "contains", "invalidate", "flush"]
        ),
        st.integers(-64, 1 << 11),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(
    block_size=st.sampled_from([1, 4, 8, 32]),
    associativity=st.integers(1, 4),
    n_sets=st.sampled_from([1, 2, 3, 8]),
    ops=_OPS,
)
def test_cache_matches_reference_model(block_size, associativity, n_sets, ops):
    """Every return value, counter and resident tag, after every
    operation, equals the reference model's."""
    size = block_size * associativity * n_sets
    cache = InstructionCache(size, block_size, associativity)
    reference = oracles.InstructionCache(size, block_size, associativity)
    last = 0
    for op, number in ops:
        if op == "again":
            op, address = "access", last
        elif op == "nearby":
            op = "access"
            address = last - last % block_size + number % block_size
        else:
            address = number
        if op == "flush":
            assert cache.flush() == reference.flush()
        else:
            result = getattr(cache, op)(address)
            assert result == getattr(reference, op)(address), (op, address)
            if op == "access":
                last = address
        assert vars(cache.stats) == vars(reference.stats)
        assert _resident_tags(cache) == _resident_tags(reference)
