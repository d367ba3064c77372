"""Desk-scale attentive GRU sequence-to-sequence models and a decoding suite
built around noisy parallel approximate decoding."""

from .chains import ChainResult, npad_search, run_chains, select_best
from .core import ContractError, RngStream, derive_seed, softmax
from .decode import (
    DecodeLimits,
    Hypothesis,
    beam_search,
    exact_search,
    greedy_search,
    score_sequence,
)
from .evaluate import Cell, EvalRecord, ExperimentSpec, corpus_bleu, mean_nll, run_experiment
from .model import (
    BOS,
    EOS,
    PAD,
    BoundModel,
    Dims,
    EncodedSource,
    ModelParams,
    Vocab,
    VocabError,
    init_params,
)
from .tasks import SequencePair, TaskData, gen_task
from .train import TrainConfig, clip_gradients, grad_check, nll_loss, train

__all__ = [name for name in dir() if not name.startswith("_")]
