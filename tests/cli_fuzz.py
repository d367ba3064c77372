"""Hypothesis examples of `npad decode` and `npad experiment` with extreme
numeric flags and spec fields, run through `cli.main` in one process whose
address space is capped at 1 GiB.

Usage: python tests/cli_fuzz.py DIR  (tests/test_cli.py runs it). The run
works inside DIR, an empty scratch directory, where it writes the models,
vocabulary, input and specs.

Every example must exit 0, exit 1 with exactly one `error:` line, or exit 2
where argparse refuses a value. A run that exits 0 raises no RuntimeWarning,
and each line a decode prints is JSON without NaN or Infinity. An experiment
exits 0 even when a cell fails; the only failure it may report is an exact
search refused as too large. A huge `max_len` is drawn only with the
EOS-first model (zero readout weights, a large EOS bias), so its decodes
end within a few steps. `--workers` is left out: it starts processes.
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

FILES = ["--vocab-src", "vocab.txt", "--vocab-tgt", "vocab.txt", "--input", "input.txt"]
SMALL = st.integers(-2, 8)
SIZES = SMALL | st.sampled_from([MAX_ROWS, MAX_ROWS + 1, 10**8, 2**63, 10**30])
LENGTHS = SMALL | st.sampled_from([10**9, 10**12, 2**63, 10**30])
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, 1.7e308])
SEEDS = st.integers() | st.sampled_from([-1, 2**64, -(2**64), 10**40])
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def write_inputs() -> None:
    """A 7-token vocabulary, two sources, a random model and its EOS-first copy."""
    save_vocab("vocab.txt", Vocab.from_content(["a", "b", "c", "d"]))
    with open("input.txt", "w") as f:
        f.write("a b c\tc b a\nd\td\n")
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


def check(argv) -> None:
    code, out, lines, raised = run(argv)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif code == 2:
        assert lines and ": error: argument --" in lines[-1], (argv, lines)
    else:
        assert code == 0, (argv, code, lines)
        overflows = [str(w.message) for w in raised if issubclass(w.category, RuntimeWarning)]
        assert not overflows, (argv, overflows)
        failed = [line for line in lines if line.startswith("warning: cell")]
        assert all("SearchSpaceError" in line for line in failed), (argv, lines)
        if argv[0] == "decode":
            for line in out:
                json.loads(line, parse_constant=no_constant)


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


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    write_inputs()
    decode_flags()
    experiment_fields()
