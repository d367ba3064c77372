"""Desk-scale attentive GRU sequence-to-sequence models and a decoding suite
built around noisy parallel approximate decoding."""

from .chains import ChainResult, npad_search, run_chains, select_best
from .core import ContractError, RngStream, derive_seed, gaussian_vec, softmax
from .decode import (
    DecodeLimits,
    Hypothesis,
    beam_search,
    diverse_beam_search,
    exact_search,
    force_score,
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
    attention_context,
    decoder_step,
    init_params,
)
from .tasks import SequencePair, TaskData, gen_task
from .train import TrainConfig, clip_gradients, grad_check, nll_loss, train

__all__ = [name for name in dir() if not name.startswith("_")]
