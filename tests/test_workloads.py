"""Tests for the synthetic SPEC95 workload generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.fields import chunk_words
from repro.isa.mips.formats import decode as mips_decode
from repro.isa.x86.formats import decode_all
from repro.workloads.profiles import BENCHMARK_NAMES, SPEC95, get_profile
from repro.workloads.sampling import WeightedTable, ZipfSampler, weighted_choice
from repro.workloads.suite import generate_benchmark, generate_suite
from tests.oracles import weighted_choice_scan, zipf_sample_scan

#: Draw weights: integers and floats, zero included.
_weight = st.one_of(
    st.just(0),
    st.integers(0, 1000),
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
)
#: Weight lists with runs of zeros at either end, or all zero.
_weights = st.one_of(
    st.tuples(
        st.integers(0, 3), st.lists(_weight, min_size=1, max_size=12),
        st.integers(0, 3),
    ).map(lambda t: [0] * t[0] + t[1] + [0.0] * t[2]),
    st.lists(st.sampled_from([0, 0.0]), min_size=1, max_size=5),
)


class _Fixed:
    """A stand-in ``rng`` whose ``random()`` always returns ``point``."""

    def __init__(self, point: float) -> None:
        self.point = point

    def random(self) -> float:
        return self.point


def _running(values):
    """Running sums from ``0.0``, as both draws accumulate them."""
    acc, out = 0.0, []
    for value in values:
        acc += value
        out.append(acc)
    return out


class TestProfiles:
    def test_all_eighteen_benchmarks(self):
        assert len(SPEC95) == 18
        assert "gcc" in BENCHMARK_NAMES and "tomcatv" in BENCHMARK_NAMES

    def test_lookup(self):
        assert get_profile("gcc").category == "int"
        assert get_profile("swim").category == "fp"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_profile("doom")

    def test_size_ordering(self):
        # The paper notes compress is small and gcc large.
        assert get_profile("compress").instructions < get_profile("gcc").instructions


class TestSampling:
    def test_zipf_skews_to_front(self):
        sampler = ZipfSampler(["a", "b", "c", "d"], skew=1.5)
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(2000)]
        assert draws.count("a") > draws.count("d")

    def test_zipf_empty_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler([], 1.0)

    def test_weighted_choice_respects_weights(self):
        rng = random.Random(1)
        draws = [weighted_choice(rng, [(99, "x"), (1, "y")]) for _ in range(500)]
        assert draws.count("x") > 400

    @settings(max_examples=200, deadline=None)
    @given(_weights, st.integers(0, 2**32 - 1))
    def test_table_draws_pick_the_scans_item(self, weights, seed):
        """A table built once picks what the linear scan picks, draw for
        draw, zero weights included; so does a one-off
        ``weighted_choice``."""
        table = [(weight, index) for index, weight in enumerate(weights)]
        built = WeightedTable(table)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert built.draw(ours) == weighted_choice_scan(theirs, table)
        assert weighted_choice(ours, table) == weighted_choice_scan(theirs, table)

    @settings(max_examples=200, deadline=None)
    @given(_weights, st.data())
    def test_table_draws_on_the_boundaries(self, weights, data):
        """A point of 0.0, or one that lands exactly on a running
        weight, picks the scan's item: the first whose running weight
        reaches the point, not the one after it."""
        table = [(weight, index) for index, weight in enumerate(weights)]
        total = sum(weights)
        points = [0.0] + [acc / total for acc in _running(weights) if total]
        point = data.draw(st.sampled_from(points))
        assert WeightedTable(table).draw(_Fixed(point)) == (
            weighted_choice_scan(_Fixed(point), table)
        )

    def test_a_point_on_a_boundary_takes_the_earlier_item(self):
        # Running weights 1, 2, 4 (exact floats): 0.25 * 4 is exactly 1.
        table = WeightedTable([(1, "a"), (1, "b"), (2, "c")])
        assert table.draw(_Fixed(0.25)) == "a"
        assert table.draw(_Fixed(0.5)) == "b"
        assert table.draw(_Fixed(0.0)) == "a"
        assert table.draw(_Fixed(0.999)) == "c"

    def test_a_point_past_the_last_weight_takes_the_last_item(self):
        # Only rounding can put a point there; a stub puts it there.
        table = [(1, "a"), (0, "b"), (2, "c"), (0, "d")]
        assert WeightedTable(table).draw(_Fixed(1.5)) == "d"
        assert weighted_choice_scan(_Fixed(1.5), table) == "d"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.floats(0, 3), st.integers(0, 2**32 - 1))
    def test_zipf_draws_pick_the_scans_item(self, count, skew, seed):
        items = list(range(count))
        sampler = ZipfSampler(items, skew)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert sampler.sample(ours) == zipf_sample_scan(theirs, items, skew)
        weights = [1.0 / (rank + 1) ** skew for rank in items]
        total = sum(weights)
        for point in [0.0] + _running([weight / total for weight in weights]):
            assert sampler.sample(_Fixed(point)) == (
                zipf_sample_scan(_Fixed(point), items, skew)
            )

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one item"):
            weighted_choice(random.Random(0), [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_choice(random.Random(0), [(2, "a"), (-1, "b"), (1, "c")])


class TestMipsGeneration:
    def test_deterministic(self):
        a = generate_benchmark("gcc", "mips", scale=0.1, seed=3).code
        b = generate_benchmark("gcc", "mips", scale=0.1, seed=3).code
        assert a == b

    def test_seed_changes_output(self):
        a = generate_benchmark("gcc", "mips", scale=0.1, seed=3).code
        b = generate_benchmark("gcc", "mips", scale=0.1, seed=4).code
        assert a != b

    def test_every_word_decodes(self, mips_program):
        for word in chunk_words(mips_program, 4):
            mips_decode(word)

    def test_scale_controls_size(self):
        small = generate_benchmark("perl", "mips", scale=0.1)
        large = generate_benchmark("perl", "mips", scale=0.4)
        assert large.size_bytes > small.size_bytes

    def test_register_skew_visible(self, mips_program):
        # $sp (29) must be among the most-used register fields.
        from collections import Counter

        counts = Counter()
        for word in chunk_words(mips_program, 4):
            counts[(word >> 21) & 31] += 1
        top = [reg for reg, _n in counts.most_common(4)]
        assert 29 in top

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            generate_benchmark("gcc", "mips", scale=0)

    def test_bad_isa(self):
        with pytest.raises(ValueError):
            generate_benchmark("gcc", "sparc")


class TestX86Generation:
    def test_deterministic(self):
        a = generate_benchmark("go", "x86", scale=0.1, seed=3).code
        b = generate_benchmark("go", "x86", scale=0.1, seed=3).code
        assert a == b

    def test_decodes_exactly(self, x86_program):
        instrs = decode_all(x86_program)
        assert sum(i.length for i in instrs) == len(x86_program)

    def test_denser_than_mips(self):
        mips = generate_benchmark("ijpeg", "mips", scale=0.3)
        x86 = generate_benchmark("ijpeg", "x86", scale=0.3)
        assert x86.size_bytes < mips.size_bytes

    def test_prologue_idiom_present(self, x86_program):
        assert b"\x55\x89\xe5" in x86_program  # push ebp; mov ebp, esp


class TestSuite:
    def test_generate_suite_order(self):
        programs = list(generate_suite("mips", scale=0.05,
                                       names=("compress", "gcc")))
        assert [p.name for p in programs] == ["compress", "gcc"]

    def test_fp_benchmarks_use_cop1(self):
        program = generate_benchmark("swim", "mips", scale=0.3)
        has_cop1 = any(
            (word >> 26) in (0x11, 0x31, 0x35, 0x39, 0x3D)
            for word in chunk_words(program.code, 4)
        )
        assert has_cop1

    def test_int_benchmarks_avoid_cop1_arith(self):
        program = generate_benchmark("go", "mips", scale=0.3)
        cop1_arith = sum(
            1 for word in chunk_words(program.code, 4)
            if (word >> 26) == 0x11
        )
        assert cop1_arith == 0
