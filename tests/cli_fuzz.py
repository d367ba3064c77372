"""Hypothesis examples of `npad decode` and `npad experiment` with extreme
numeric flags and spec fields, of `npad score` on pairs of up to 3,000
tokens, and of `npad gen-data` and `npad train` with extreme sizes, counts
and rates, run through `cli.main` in one process whose address space is
capped at 1 GiB.

Usage: python tests/cli_fuzz.py DIR  (tests/test_cli.py runs it). The run
works inside DIR, an empty scratch directory, where it writes the models,
vocabulary, input and specs.

Every example must exit 0, exit 1 with exactly one `error:` line, or exit 2
where argparse refuses a value. No run raises a RuntimeWarning, and each
line a decode prints is JSON without NaN or Infinity. An experiment
exits 0 even when a cell fails; the only failure it may report is an exact
search refused as too large. A huge `max_len` is drawn only with the
EOS-first model (zero readout weights, a large EOS bias), so its decodes
end within a few steps. `--workers` is left out: it starts processes. A
score must exit 0: a group of equal-length 3,000-token pairs fits in 1 GiB
only because scoring keeps no backpropagation cache. So that every example
is short, a gen-data count is small or above `tasks.MAX_PAIRS`, a model is
small (at most 2,000 wide in one of its sizes) or above `train.MAX_PARAMS`,
and a train run of more than 8 epochs stops after its first (`--stop-below`
1e300 or inf).
"""
import contextlib
import io
import json
import os
import resource
import sys
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from npad.cli import main
from npad.core import RngStream
from npad.evaluate import MAX_ROWS, STRATEGIES
from npad.model import EOS, Dims, Vocab, init_params
from npad.serialize import save_model, save_vocab
from npad.tasks import MAX_PAIRS, MAX_VOCAB, TASK_KINDS

FILES = ["--vocab-src", "vocab.txt", "--vocab-tgt", "vocab.txt", "--input", "input.txt"]
SMALL = st.integers(-2, 8)
SIZES = SMALL | st.sampled_from([MAX_ROWS, MAX_ROWS + 1, 10**8, 2**63, 10**30])
LENGTHS = SMALL | st.sampled_from([10**9, 10**12, 2**63, 10**30])
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, 1.7e308])
SEEDS = st.integers() | st.sampled_from([-1, 2**64, -(2**64), 10**40])
HUGE = st.sampled_from([10**9, 10**12, 2**63, 10**30])
# a pair count is small or above the bound: a valid large count takes seconds
COUNTS = SMALL | st.sampled_from([MAX_PAIRS + 1, 10**12, 2**63])
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def write_inputs() -> None:
    """A 7-token vocabulary, two sources, a random model and its EOS-first copy."""
    save_vocab("vocab.txt", Vocab.from_content(["a", "b", "c", "d"]))
    with open("input.txt", "w") as f:
        f.write("a b c\tc b a\nd\td\n")
    with open("valid.txt", "w") as f:
        f.write("c c\tc c\n")
    params = init_params(RngStream(3), Dims(d_emb=4, d_hid=6, n_src=7, n_tgt=7), scale=0.8)
    save_model("plain.bin", params)
    params.tensors["out.W"][:] = 0.0
    params.tensors["out.b"][EOS] = 40.0
    save_model("eos_first.bin", params)


def run(argv):
    """`main(argv)` with its output and every warning it raises captured:
    (exit code, stdout lines, stderr lines, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines(), raised


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


def check(argv) -> int:
    code, out, lines, raised = run(argv)
    overflows = [str(w.message) for w in raised if issubclass(w.category, RuntimeWarning)]
    assert not overflows, (argv, code, overflows)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif code == 2:
        assert lines and ": error: argument --" in lines[-1], (argv, lines)
    else:
        assert code == 0, (argv, code, lines)
        failed = [line for line in lines if line.startswith("warning: cell")]
        assert all("SearchSpaceError" in line for line in failed), (argv, lines)
        if argv[0] in ("decode", "score"):
            for line in out:
                json.loads(line, parse_constant=no_constant)
    return code


# the fields each strategy reads; the others are mostly left unset, as a
# cell that sets one is refused before it runs
READS = {"greedy": (), "beam": ("beam_width",), "diverse": ("beam_width", "eta"),
         "sample": ("chains", "sigma0", "seed"), "npad": ("chains", "beam_width", "sigma0", "seed"),
         "exact": ()}


@st.composite
def cells(draw):
    """(strategy, model path, {field: value}) over max_len, chains,
    beam_width, sigma0, eta and seed."""
    strategy = draw(st.sampled_from(STRATEGIES))
    eos_first = draw(st.booleans())
    sizes = SIZES if eos_first else SMALL
    fields = {}
    for name, values in (("max_len", LENGTHS if eos_first else SMALL), ("chains", sizes),
                         ("beam_width", sizes), ("sigma0", FLOATS), ("eta", FLOATS),
                         ("seed", SEEDS)):
        if draw(st.integers(0, 9)) < (7 if name in READS[strategy] + ("max_len",) else 1):
            fields[name] = draw(values)
    return strategy, "eos_first.bin" if eos_first else "plain.bin", fields


@SETTINGS
@given(cells())
@example(("exact", "plain.bin", {"max_len": 10**12}))
@example(("npad", "plain.bin", {"chains": 3, "sigma0": 1.7e308, "seed": 1}))
@example(("diverse", "plain.bin", {"beam_width": 3, "eta": 1.7e308}))
def decode_flags(cell):
    strategy, model, fields = cell
    argv = ["decode", "--strategy", strategy, "--model", model, *FILES]
    # "--sigma0=-1e+300": a value after "=" is never read as a flag
    check(argv + [f"--{name.replace('_', '-')}={value!r}" for name, value in fields.items()])


@SETTINGS
@given(cells(), st.none() | SEEDS)
@example(("exact", "plain.bin", {"max_len": 10**12}), None)
@example(("npad", "plain.bin", {"chains": 3, "sigma0": 10**400, "seed": 1}), None)
def experiment_fields(cell, seed_flag):
    strategy, model, fields = cell
    cell_fields = {k: v for k, v in fields.items() if k not in ("max_len", "seed")}
    spec = {"model": model, "test_set": "input.txt", "vocab_src": "vocab.txt",
            "vocab_tgt": "vocab.txt", "base_seed": fields.get("seed", 0),
            "max_len": fields.get("max_len"), "cells": [{"strategy": strategy, **cell_fields}]}
    with open("spec.json", "w") as f:
        json.dump(spec, f)
    argv = ["experiment", "--spec", "spec.json"]
    check(argv if seed_flag is None else argv + ["--seed", str(seed_flag)])


def text(length: int, offset: int) -> str:
    """A sentence of `length` words of vocab.txt."""
    return " ".join("abcd"[(offset + k * k) % 4] for k in range(length))


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(["plain.bin", "eos_first.bin"]),
       st.lists(st.tuples(st.integers(1, 6) | st.just(3000), st.integers(1, 6) | st.just(3000),
                          st.integers(0, 3)), min_size=1, max_size=3))
@example("plain.bin", [(3000, 3000, 0), (3000, 3000, 1), (3000, 3000, 2)])
def score_pairs(model, pairs):
    """(source length, target length, offset) for each pair of the file."""
    with open("pairs.txt", "w") as f:
        f.writelines(f"{text(ls, k)}\t{text(lt, k + 1)}\n" for ls, lt, k in pairs)
    assert check(["score", "--model", model, *FILES[:4], "--input", "pairs.txt"]) == 0


@SETTINGS
@given(st.sampled_from(TASK_KINDS),
       SMALL | st.sampled_from([MAX_VOCAB, MAX_VOCAB + 1, 10**7, 2**32, 2**63]),
       st.fixed_dictionaries({"train-count": COUNTS}, optional={
           "valid-count": COUNTS, "test-count": COUNTS, "min-len": st.integers(-2, 21) | HUGE,
           "max-len": st.integers(-2, 21) | HUGE}),
       SEEDS)
@example("copy", 10**7, {"train-count": 5}, 0)
@example("copy", 4, {"train-count": 10**12}, 0)
@example("copy", 1, {"train-count": 10**6, "min-len": 1, "max-len": 2}, 0)
def gen_data_flags(task, vocab_size, fields, seed):
    fields = {"vocab-size": vocab_size, **fields, "seed": seed}
    check(["gen-data", "--task", task, "--out-dir", "corpus",
           *[f"--{name}={value}" for name, value in fields.items()]])


@SETTINGS
@given(st.dictionaries(st.sampled_from(["d-emb", "d-hid", "batch-size"]),
                       SMALL | st.sampled_from([2000, 10**5, 10**7]) | HUGE),
       st.dictionaries(st.sampled_from(["lr", "clip-norm", "stop-below"]), FLOATS),
       SMALL | HUGE)
@example({"d-hid": 100000}, {}, 1)
@example({"d-emb": 10**7}, {}, 1)
@example({}, {"lr": 1e300}, 1)
def train_flags(sizes, rates, epochs):
    if epochs > 8:
        rates["stop-below"] = 1e300 if epochs % 2 else float("inf")
    argv = ["train", "--input", "input.txt", "--valid", "valid.txt", "--vocab-src", "vocab.txt",
            "--vocab-tgt", "vocab.txt", "--model", "trained.bin", "--seed", "1"]
    check(argv + [f"--{name}={value!r}" for name, value in {**sizes, **rates, "epochs": epochs}.items()])


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    write_inputs()
    decode_flags()
    experiment_fields()
    score_pairs()
    gen_data_flags()
    train_flags()
