"""The vectorised FNV-1a 64 checksum equals the byte-at-a-time loop.

Checkpoints written before the rewrite must keep loading, and new ones
must keep their bytes, so fnv1a64 is held to the loop of
tests/reference.py on arbitrary bytes, at the lengths where its 8-byte
words and its blocks begin and end, and to the published FNV-1a 64
vectors.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arcmatch.checkpoint import _BLOCK, fnv1a64

from reference import ref_fnv1a64

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EDGE_LENGTHS = (0, 1, 7, 8, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK)


def _examples(test):
    for n in EDGE_LENGTHS:
        test = example(data=bytes((7 * i + 255 * (i % 3 == 0)) % 256 for i in range(n)))(test)
    return test


@settings(PROPERTY)
@given(data=st.binary(max_size=3 * _BLOCK + 9))
@_examples
def test_fnv1a64_equals_the_byte_loop(data):
    assert fnv1a64(data) == ref_fnv1a64(data)


@pytest.mark.parametrize("data,want", [(b"", 0xCBF29CE484222325),
                                       (b"a", 0xAF63DC4C8601EC8C),
                                       (b"foobar", 0x85944171F73967E8)])
def test_fnv1a64_published_vectors(data, want):
    assert fnv1a64(data) == want
