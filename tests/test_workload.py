"""Distribution sampling and synthetic stream generation."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iostack import AccessMode, GeneratorSpec, InvalidParams, Op, generate, sample, write_canonical
from iostack.workload import SEQUENTIAL_ADDRESSES, DistSpec, aligned_choices

# The seed-to-stream mapping is a public contract (PCG64 through
# SeedSequence, draws per request in the order inter-arrival, op, size,
# address).  This frozen output must never change across releases.
GOLDEN_SPEC = GeneratorSpec(
    count=6,
    seed=20240501,
    inter_arrival_us=DistSpec.exponential(500),
    size_bytes=DistSpec.uniform(512, 131072),
    read_weight=1,
    write_weight=1,
)
GOLDEN_STREAM = (
    "#iostack-trace v1 cluster_bytes=4096\n"
    "#issue_us origin op file_id offset_bytes length_bytes disk_byte_addr mode\n"
    "0 APP OPEN 0 0 0 0 NORMAL\n"
    "118 APP READ 0 0 3584 0 NORMAL\n"
    "155 APP READ 0 3584 49664 3584 NORMAL\n"
    "319 APP READ 0 53248 77312 53248 NORMAL\n"
    "474 APP READ 0 130560 26624 130560 NORMAL\n"
    "475 APP WRITE 0 157184 52224 157184 NORMAL\n"
    "1245 APP READ 0 209408 111104 209408 NORMAL\n"
    "1245 APP CLOSE 0 0 0 0 NORMAL\n"
)


def rng(seed: int = 1) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class TestSample:
    def test_constant_always(self):
        spec = DistSpec.constant(65_536)
        r = rng()
        assert all(sample(spec, r) == 65_536 for _ in range(100))

    def test_uniform_zero_width(self):
        spec = DistSpec.uniform(7, 7)
        r = rng()
        assert all(sample(spec, r) == 7 for _ in range(100))

    def test_exponential_mean_large_sample(self):
        # Law of large numbers: the sample mean of 1e5 draws at mean 500
        # stays within +/-2% for this fixed seed.
        spec = DistSpec.exponential(500)
        r = rng(42)
        draws = [sample(spec, r) for _ in range(100_000)]
        assert 490 <= sum(draws) / len(draws) <= 510

    def test_invalid_params_at_construction(self):
        with pytest.raises(InvalidParams):
            DistSpec.uniform(5, 1)
        with pytest.raises(InvalidParams):
            DistSpec.exponential(0)
        with pytest.raises(InvalidParams):
            DistSpec.normal(0, -1)
        with pytest.raises(InvalidParams):
            DistSpec.binomial(-1, 0.5)
        with pytest.raises(InvalidParams):
            DistSpec.choice(())
        with pytest.raises(InvalidParams):
            DistSpec(DistSpec.constant(1).kind, (1,), clamp=(5, 1))

    def test_choice_draws_member(self):
        spec = DistSpec.choice((512, 1024, 4096))
        r = rng(3)
        assert all(sample(spec, r) in (512, 1024, 4096) for _ in range(50))

    def test_aligned_choices_alignment(self):
        spec = aligned_choices(extent_bytes=1_048_576, align_bytes=65_536)
        r = rng(4)
        for _ in range(50):
            v = sample(spec, r)
            assert v % 65_536 == 0
            assert 0 <= v <= 1_048_576 - 65_536

    @given(
        mean=st.floats(1, 1e6),
        lo=st.integers(0, 1000),
        width=st.integers(0, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clamp_containment(self, mean, lo, width, seed):
        spec = DistSpec.exponential(mean, clamp=(lo, lo + width))
        value = sample(spec, rng(seed))
        assert lo <= value <= lo + width


class TestGenerate:
    def test_sequential_offsets_and_zero_gaps(self):
        spec = GeneratorSpec(
            count=3,
            seed=1,
            size_bytes=DistSpec.constant(65_536),
            inter_arrival_us=DistSpec.constant(0),
            address=SEQUENTIAL_ADDRESSES,
        )
        out = generate(spec)
        ios = [r for r in out if r.op in (Op.READ, Op.WRITE)]
        assert [r.file_offset_bytes for r in ios] == [0, 65_536, 131_072]
        assert all(r.issue_time_us == 0 for r in ios)

    def test_count_zero_is_empty(self):
        assert generate(GeneratorSpec(count=0, seed=1)) == []

    def test_open_close_bracket(self):
        out = generate(GeneratorSpec(count=2, seed=9, mode=AccessMode.SEQUENTIAL))
        assert out[0].op is Op.OPEN and out[-1].op is Op.CLOSE
        assert out[0].mode is AccessMode.SEQUENTIAL
        assert len(out) == 4

    def test_determinism_byte_identical(self):
        spec = GeneratorSpec(
            count=500,
            seed=77,
            inter_arrival_us=DistSpec.poisson(100),
            size_bytes=DistSpec.normal(65_536, 30_000),
            read_weight=1,
            write_weight=1,
            address=DistSpec.uniform(0, 2**24),
        )
        a, b = io.StringIO(), io.StringIO()
        write_canonical(generate(spec), a)
        write_canonical(generate(spec), b)
        assert a.getvalue() == b.getvalue()

    def test_sizes_rounded_up_to_granularity(self):
        spec = GeneratorSpec(
            count=50,
            seed=5,
            size_bytes=DistSpec.normal(1000, 5000),
            size_granularity_bytes=512,
        )
        for r in generate(spec):
            assert r.length_bytes % 512 == 0
            assert r.length_bytes >= 0

    def test_read_write_mix_all_writes(self):
        spec = GeneratorSpec(count=20, seed=6, read_weight=0, write_weight=1)
        ios = [r for r in generate(spec) if r.op in (Op.READ, Op.WRITE)]
        assert all(r.op is Op.WRITE for r in ios)

    def test_weights_validation(self):
        with pytest.raises(InvalidParams):
            GeneratorSpec(count=1, seed=1, read_weight=0, write_weight=0)
        with pytest.raises(InvalidParams):
            GeneratorSpec(count=-1, seed=1)

    def test_disk_base_offsets_addresses(self):
        spec = GeneratorSpec(count=2, seed=2, disk_base_bytes=1 << 20)
        ios = [r for r in generate(spec) if r.op is not Op.OPEN and r.op is not Op.CLOSE]
        for r in ios:
            assert r.disk_byte_addr == (1 << 20) + r.file_offset_bytes

    def test_golden_stream_pins_seed_to_stream_mapping(self):
        sink = io.StringIO()
        write_canonical(generate(GOLDEN_SPEC), sink)
        assert sink.getvalue() == GOLDEN_STREAM

    @given(seed=st.integers(0, 2**31), count=st.integers(1, 30))
    def test_sequential_address_closure(self, seed, count):
        spec = GeneratorSpec(
            count=count,
            seed=seed,
            size_bytes=DistSpec.uniform(512, 65_536),
            address=SEQUENTIAL_ADDRESSES,
        )
        ios = [r for r in generate(spec) if r.op in (Op.READ, Op.WRITE)]
        for prev, cur in zip(ios, ios[1:]):
            assert cur.file_offset_bytes == prev.file_offset_bytes + prev.length_bytes
