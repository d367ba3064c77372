import hashlib
import os

import pytest
from hypothesis import strategies as st

from npad.core import RngStream
from npad.decode import DecodeLimits, forced_pick, search_rows
from npad.model import Dims, init_params
from npad.serialize import load_model
from npad.tasks import gen_task

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FROZEN_MODEL = os.path.join(ROOT, "bench", "data", "translate.bin")
FROZEN_SHA256 = "b9483ea77747680fc0581d6d4214029784ee58c503061f5a6341e62db117da14"
# The acceptance translate corpus; its first 1,650 pairs trained the frozen model.
HELD_OUT = 1650


def make_params(seed: int, d_emb=3, d_hid=4, n_src=5, n_tgt=4, scale=0.8):
    """Small random model; the default scale gives well-spread distributions."""
    dims = Dims(d_emb=d_emb, d_hid=d_hid, n_src=n_src, n_tgt=n_tgt)
    return init_params(RngStream(seed), dims, scale=scale)


def forced_scores(model, seqs, max_len):
    """The sequences rescored as the searches of one forced search, as NPAD
    rescores the outputs of its noisy beam chains."""
    found = search_rows(model, len(seqs), pick=forced_pick(seqs, max_len),
                        limits=DecodeLimits(max_len))
    return [best.logp for best, _ in found]


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


@pytest.fixture(scope="session")
def frozen_translate():
    """The benchmark's frozen translate model (the acceptance fixture's
    recipe, stored), after checking its sha256, the first 12 held-out pairs
    of its corpus and the corpus's task data (its vocabularies)."""
    with open(FROZEN_MODEL, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == FROZEN_SHA256, \
            f"{FROZEN_MODEL} is not the frozen model"
    data = gen_task("lexical-translate", 32, (12, 20), HELD_OUT + 12, seed=101)
    return load_model(FROZEN_MODEL), data.pairs[HELD_OUT:], data
