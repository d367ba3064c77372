"""Golden digests: every output bit of the main decoders on the frozen
translate model, against a table stored here.

Each configuration decodes the 12 held-out pairs of `frozen_translate` with
sentence i's seed derive_seed(55, i) and hashes, per sentence, the tokens,
the `float.hex` of every score and the complete flag; a configuration that
keeps its chain results hashes every chain's tokens, noisy and rescored
scores as well. Beside the decoders: `score_sequence` of each held-out pair,
the parameter bytes after one `train.train` epoch on the first 64 training
pairs, and `exact_search` of a tiny model on a few sources. One changed bit
anywhere changes a digest.

A change that legitimately moves float bits regenerates the table (print
`_digests` on the new code) and says so as a test-data change.
"""
import hashlib

from npad.core import derive_seed
from npad.decode import DecodeLimits, exact_search, score_sequence
from npad.evaluate import Cell, decode_corpus, decode_with_cell
from npad.model import BoundModel
from npad.train import TrainConfig, train
from conftest import make_params

SEED = 55
NPAD_50 = Cell(strategy="npad", sigma0=0.3, chains=50)
NPAD_BEAM = Cell(strategy="npad", sigma0=0.3, chains=5, beam_width=5)

# sha256 per configuration. The decoders' were generated before the
# completed-score bound on chains landed, the last three before the zero
# chain ran ahead of the noisy chains; neither change moved a digest.
GOLDEN = {
    "greedy":
        "97bfa9809ab4e3b6563909edcf90f9cd26c819cc323769549667a6f9f50743c6",
    "beam-10":
        "5aa42068771368b8516f58b3111592c691494954027875b0d7245efef00053f4",
    "diverse-10 eta 0.5":
        "c99374d6e85abda85ba49d77bb0393d2aa101b7b65f0329bb383c368568f70d6",
    "npad-50":
        "ed2296135d8da1d9bc31b7cd52f014e802c3c73f415f6dea7b45530541f676c9",
    "npad-50 chains":
        "d7ca8f743d51db46b688499f9a711bee50a07f354b4fc247b690f112b1106731",
    "npad-5 beam-5 chains":
        "a09588a5eb37cf49b3ec6db5380d39b79f39a1017d997d04f6f6d47f4df409b4",
    "sample-20":
        "eb0181bb208b1c1c255987cc82622ed7e30a910b3ca585c83fdc39f23b49df34",
    "sample-20 sigma0 0.3":
        "fcb6d2520a4d4aae20f60acf9017c8f0e95167f7bdf8dcd58cbb047b4ed5a0f6",
    "score_sequence":
        "c3d371645993bd55c5dc177be7f12f0bf5563a8d33e746156cad2d3c9ced8efc",
    "train 1 epoch":
        "05360cfef3e92deed8681bf226415fd97b61cd01689bfe0a0363f389553ec24d",
    "exact tiny":
        "8de32517e4afab8d3b484e57168dd0bec34d26fe21cb5aa77eeae64a06cd4138",
}


def _line(tokens, *scores_and_flags) -> str:
    return " ".join([",".join(map(str, tokens)),
                     *(v.hex() if isinstance(v, float) else str(v) for v in scores_and_flags)])


def _digests(params, pairs, data) -> dict:
    sources = [p.source for p in pairs]

    def corpus(cell, keep_chains=False):
        return decode_corpus(params, sources, None, cell, SEED, keep_chains=keep_chains)

    lines = {
        "greedy": corpus(Cell(strategy="greedy")),
        "beam-10": corpus(Cell(strategy="beam", beam_width=10)),
        "diverse-10 eta 0.5": corpus(Cell(strategy="diverse", beam_width=10, eta=0.5)),
        "sample-20": corpus(Cell(strategy="sample", chains=20)),
        "sample-20 sigma0 0.3": corpus(Cell(strategy="sample", chains=20, sigma0=0.3)),
    }
    lines = {name: [_line(r.tokens, r.rescored_logp, r.complete) for r in records]
             for name, records in lines.items()}
    lines["npad-50"] = [
        _line(*decode_with_cell(params, source, NPAD_50, derive_seed(SEED, i)))
        for i, source in enumerate(sources)]
    for name, cell in (("npad-50 chains", NPAD_50), ("npad-5 beam-5 chains", NPAD_BEAM)):
        lines[name] = [_line(c.hypothesis.tokens, c.chain_index, c.noisy_logp,
                             c.rescored_logp, c.hypothesis.complete)
                       for r in corpus(cell, keep_chains=True) for c in r.chains]
    lines["score_sequence"] = [score_sequence(params, p.source, p.target).hex() for p in pairs]
    trained, _ = train(params, data.pairs[:64], pairs, TrainConfig(epochs=1, seed=SEED))
    lines["train 1 epoch"] = [f"{name} {tensor.tobytes().hex()}"
                              for name, tensor in trained.tensors.items()]
    tiny = make_params(7)
    lines["exact tiny"] = [_line(h.tokens, h.logp, h.complete) for h in (
        exact_search(BoundModel(tiny, source), DecodeLimits(6))
        for source in ([0], [3, 4], [1, 2, 4], [4, 0, 3, 1]))]
    return {name: hashlib.sha256("\n".join(text).encode()).hexdigest()
            for name, text in lines.items()}


def test_decodes_on_the_frozen_model_keep_every_bit(frozen_translate):
    assert _digests(*frozen_translate) == GOLDEN
