"""Desk-scale attentive GRU sequence-to-sequence models and a decoding suite
built around noisy parallel approximate decoding."""

from .chains import ChainResult, npad_search, run_chains, select_best
from .core import ContractError, RngStream, categorical_sample, derive_seed, gaussian_vec, softmax
from .decode import (
    DecodeLimits,
    Hypothesis,
    beam_search,
    diverse_beam_search,
    exact_search,
    force_score,
    greedy_search,
)
from .evaluate import Cell, EvalRecord, ExperimentSpec, corpus_bleu, mean_nll, run_experiment
from .model import (
    BOS,
    EOS,
    PAD,
    BoundModel,
    DecoderState,
    Dims,
    EncodedSource,
    ModelParams,
    Vocab,
    VocabError,
    attention_context,
    decoder_step,
    encode,
    init_params,
    score_sequence,
)
from .tasks import SequencePair, TaskData, gen_task
from .train import TrainConfig, clip_gradients, grad_check, nll_loss, train

__all__ = [name for name in dir() if not name.startswith("_")]
