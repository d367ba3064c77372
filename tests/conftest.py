import pytest
from hypothesis import strategies as st

from npad.core import RngStream
from npad.model import Dims, init_params


def make_params(seed: int, d_emb=3, d_hid=4, n_src=5, n_tgt=4, scale=0.8):
    """Small random model; the default scale gives well-spread distributions."""
    dims = Dims(d_emb=d_emb, d_hid=d_hid, n_src=n_src, n_tgt=n_tgt)
    return init_params(RngStream(seed), dims, scale=scale)


def damaged(data, blob: bytes) -> bytes:
    """`blob` truncated, or with one bit flipped, as Hypothesis draws it."""
    cut = data.draw(st.integers(0, len(blob)))
    if data.draw(st.booleans()):
        return blob[:cut]
    flipped = bytearray(blob)
    flipped[min(cut, len(blob) - 1)] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(flipped)


@pytest.fixture
def tiny_params():
    return make_params(7)


@pytest.fixture
def rng():
    return RngStream(12345)
