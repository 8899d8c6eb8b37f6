"""Tests for repro.util.hashing and its compiled twin in repro.sim._corec."""

import enum
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.sim._core import compiled
from repro.util.hashing import fmix64, fnv1a_64, stable_hash64

try:
    from repro.sim._corec import stable_hash64 as c_stable_hash64
except ImportError:  # extension not built (or built before the hash twin)
    c_stable_hash64 = None

needs_c_twin = pytest.mark.skipif(
    c_stable_hash64 is None, reason="compiled core not built"
)


class TestFnv1a:
    def test_empty_input_is_offset_basis(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_known_vector(self):
        # FNV-1a 64 of "a" is a published test vector.
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"hello") != fnv1a_64(b"world")

    def test_deterministic(self):
        assert fnv1a_64(b"mafic") == fnv1a_64(b"mafic")

    @given(st.binary(max_size=64))
    def test_output_is_64_bit(self, data):
        assert 0 <= fnv1a_64(data) < (1 << 64)


class TestFmix64:
    def test_zero_maps_to_zero(self):
        assert fmix64(0) == 0

    def test_output_in_range(self):
        assert 0 <= fmix64(0xFFFFFFFFFFFFFFFF) < (1 << 64)

    def test_bijective_on_samples(self):
        # fmix64 is a bijection; no collisions on a large sample.
        outputs = {fmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_avalanche_quality_high_bits(self):
        # Consecutive integers must spread across the top 10 bits —
        # the property LogLog bucketing depends on.
        buckets = {fmix64(i) >> 54 for i in range(4096)}
        assert len(buckets) > 900  # of 1024 possible


class TestStableHash64:
    def test_deterministic_across_calls(self):
        assert stable_hash64(1, "a", b"x") == stable_hash64(1, "a", b"x")

    def test_order_sensitivity(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_boundary_confusion_resistant(self):
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_type_tagging_separates_int_and_str(self):
        assert stable_hash64(49) != stable_hash64("1")

    def test_bool_distinct_from_int(self):
        assert stable_hash64(True) != stable_hash64(1)

    def test_negative_int_masked(self):
        # Negative ints are masked to 64 bits, not rejected.
        assert 0 <= stable_hash64(-1) < (1 << 64)

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError):
            stable_hash64(3.14)

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**64 - 1),
                st.text(max_size=16),
                st.binary(max_size=16),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_always_64_bit(self, parts):
        assert 0 <= stable_hash64(*parts) < (1 << 64)

    def test_collision_rate_on_flow_like_tuples(self):
        # 4-tuple labels must not collide in realistic table sizes.
        seen = set()
        for src in range(100):
            for port in range(100):
                seen.add(stable_hash64(src, 42, port, 80))
        assert len(seen) == 100 * 100

    def test_high_bits_uniform_for_buckets(self):
        counts = np.zeros(64, dtype=int)
        for i in range(64 * 200):
            counts[stable_hash64(i) >> 58] += 1
        assert counts.min() > 100  # no starving bucket


class Port(enum.IntEnum):
    HTTP = 80
    HIGH = 2**64 + 7  # wider than 64 bits: masked like a plain int


class Blob(bytes):
    pass


_PARTS = st.one_of(
    st.integers(min_value=-(2**100), max_value=2**100),
    st.booleans(),
    st.sampled_from(list(Port)),
    st.text(max_size=12),  # arbitrary code points, surrogates excluded
    st.binary(max_size=12),
    st.binary(max_size=12).map(Blob),
)


class TestPinnedValues:
    """Literal outputs, so neither twin can drift along with the other."""

    def test_pure_values(self):
        from repro.sim.packet import FlowKey

        assert stable_hash64() == 0xEFD01F60BA992926
        assert stable_hash64(0, 1) == 0x819871FD4CC53344
        assert (
            FlowKey(0x0A000001, 0x0A000101, 40000, 80).hashed()
            == 0x7AF645B050F34798
        )

    @needs_c_twin
    def test_compiled_values(self):
        assert c_stable_hash64() == 0xEFD01F60BA992926
        assert c_stable_hash64(0, 1) == 0x819871FD4CC53344
        assert (
            c_stable_hash64(0x0A000001, 0x0A000101, 40000, 80)
            == 0x7AF645B050F34798
        )


@needs_c_twin
class TestCompiledTwinParity:
    @given(st.lists(_PARTS, max_size=6))  # the empty tuple included
    def test_matches_pure(self, parts):
        assert c_stable_hash64(*parts) == stable_hash64(*parts)

    @pytest.mark.parametrize(
        "bad",
        [3.14, None, bytearray(b"ab"), np.int64(3), np.float64(1.5), "\ud800"],
        ids=["float", "None", "bytearray", "np.int64", "np.float64",
             "lone-surrogate"],
    )
    def test_error_parity(self, bad):
        raised = []
        for fn in (stable_hash64, c_stable_hash64):
            with pytest.raises(Exception) as info:
                fn(1, "ok", bad)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1]


class TestBinding:
    """The per-packet call sites use the selected twin, never a silent
    fallback picked up through import order."""

    @pytest.mark.skipif(compiled is None, reason="compiled core not active")
    def test_call_sites_bind_compiled(self):
        import repro.counting.loglog
        import repro.sim.packet

        assert repro.sim.packet.stable_hash64 is compiled.stable_hash64
        assert repro.counting.loglog.stable_hash64 is compiled.stable_hash64

    def test_call_sites_bind_pure_when_forced(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, REPRO_NO_COMPILED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import repro.counting.loglog as ll, repro.sim.packet as pk, "
            "repro.util.hashing as h\n"
            "assert pk.stable_hash64 is h.stable_hash64\n"
            "assert ll.stable_hash64 is h.stable_hash64\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
