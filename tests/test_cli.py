import hashlib
import json
import os
import struct
import subprocess
import sys

import pytest

import npad
from npad.cli import build_parser, main
from npad.decode import forced_scores
from npad.evaluate import Cell
from npad.model import BoundModel
from npad.serialize import load_model, load_pairs, load_vocab, save_pairs, save_vocab
from npad.tasks import ConfigError
from npad.train import TrainConfig
from conftest import FROZEN_MODEL


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + a quick training run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = str(root / "data")
    rc = main(["gen-data", "--task", "copy", "--vocab-size", "4",
               "--min-len", "1", "--max-len", "4",
               "--train-count", "30", "--valid-count", "8", "--test-count", "6",
               "--seed", "3", "--out-dir", data_dir])
    assert rc == 0
    model = str(root / "model.bin")
    trace = str(root / "trace.csv")
    rc = main(["train", "--input", f"{data_dir}/train.tsv", "--valid", f"{data_dir}/valid.tsv",
               "--vocab-src", f"{data_dir}/vocab_src.txt", "--vocab-tgt", f"{data_dir}/vocab_tgt.txt",
               "--model", model, "--trace", trace, "--d-emb", "4", "--d-hid", "6",
               "--epochs", "2", "--batch-size", "8", "--seed", "5"])
    assert rc == 0
    return {"root": root, "data": data_dir, "model": model, "trace": trace}


def test_gen_data_outputs_load(workspace):
    d = workspace["data"]
    vs = load_vocab(f"{d}/vocab_src.txt")
    vt = load_vocab(f"{d}/vocab_tgt.txt")
    train = load_pairs(f"{d}/train.tsv", vs, vt)
    test = load_pairs(f"{d}/test.tsv", vs, vt)
    assert len(train) == 30 and len(test) == 6
    assert not (set(train) & set(test))


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--task", "reverse", "--vocab-size", "5", "--train-count", "10",
            "--seed", "9"]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "train.tsv").read_bytes() == (tmp_path / "b" / "train.tsv").read_bytes()


@pytest.mark.parametrize("counts", [("--train-count", "3", "--valid-count", "-1"),
                                    ("--train-count", "3", "--valid-count", "3",
                                     "--test-count", "-2")])
def test_gen_data_negative_split_count_rejected(tmp_path, capsys, counts):
    # a negative split count is a usage error, not a shortened earlier split
    out = tmp_path / "data"
    assert main(["gen-data", "--task", "copy", "--vocab-size", "4", *counts,
                 "--seed", "1", "--out-dir", str(out)]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_artifacts(workspace):
    params = load_model(workspace["model"])
    assert params.dims.d_hid == 6
    lines = open(workspace["trace"]).read().strip().split("\n")
    assert lines[0] == "epoch,train_nll,valid_nll"
    assert len(lines) == 3


def test_train_flag_defaults_are_train_config_defaults():
    # `npad train` without its optional flags trains as TrainConfig's defaults do
    args = build_parser().parse_args(["train", "--input", "a", "--valid", "b", "--vocab-src",
                                      "c", "--vocab-tgt", "d", "--model", "e", "--seed", "0"])
    defaults = TrainConfig(epochs=args.epochs)
    for name in ("batch_size", "lr", "lr_decay", "clip_norm", "patience"):
        assert getattr(args, name) == getattr(defaults, name), name
    assert (not args.plain_sgd, args.stop_below) == (defaults.adaptive,
                                                     defaults.stop_below_token_nll)


def test_decode_greedy_jsonl_schema(workspace, capsys):
    d = workspace["data"]
    rc = main(["decode", "--strategy", "greedy", "--model", workspace["model"],
               "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
               "--input", f"{d}/test.tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert list(rec) == ["input_id", "strategy", "tokens", "logp", "complete", "steps", "seed"]
    assert rec["strategy"] == "greedy"
    assert rec["steps"] == len(rec["tokens"])
    assert all(isinstance(t, str) for t in rec["tokens"])


def test_decode_npad_writes_output_and_chain_trace(workspace):
    d = workspace["data"]
    out = str(workspace["root"] / "npad.jsonl")
    trace = str(workspace["root"] / "chains.jsonl")
    rc = main(["decode", "--strategy", "npad", "--model", workspace["model"],
               "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
               "--input", f"{d}/test.tsv", "--output", out, "--chains", "3",
               "--sigma0", "0.3", "--seed", "11", "--trace-chains", trace])
    assert rc == 0
    records = [json.loads(l) for l in open(out)]
    assert len(records) == 6
    chain_lines = [json.loads(l) for l in open(trace)]
    assert len(chain_lines) == 18
    first = chain_lines[0]
    assert {"chain_index", "sigma0_effective", "tokens", "noisy_logp",
            "rescored_logp"} <= set(first)
    assert first["sigma0_effective"] == 0.0
    # selected logp matches the best rescored chain of each input
    for rec in records:
        rescored = [c["rescored_logp"] for c in chain_lines if c["input_id"] == rec["input_id"]]
        assert rec["logp"] == max(rescored)


# sha256 of the chain trace of 50-chain NPAD on the frozen model's 12 held-out
# sentences, generated before chains that can no longer win were stopped: the
# trace runs every chain to its end.
NPAD_50_TRACE_SHA256 = "9b9bc8a14716c9aedb3566dd3093b023f28040815403e25f88935b78f9cbe6e4"


def test_decode_npad_output_is_the_same_with_and_without_the_trace(frozen_translate,
                                                                    tmp_path):
    # without a trace the chains that can no longer win stop early; the
    # output keeps its bytes, and the trace still holds every chain in full
    _, pairs, data = frozen_translate
    save_vocab(str(tmp_path / "src.txt"), data.src_vocab)
    save_vocab(str(tmp_path / "tgt.txt"), data.tgt_vocab)
    save_pairs(str(tmp_path / "test.tsv"), pairs, data.src_vocab, data.tgt_vocab)
    decode = ["decode", "--strategy", "npad", "--chains", "50", "--sigma0", "0.3",
              "--seed", "55", "--model", FROZEN_MODEL, "--vocab-src", str(tmp_path / "src.txt"),
              "--vocab-tgt", str(tmp_path / "tgt.txt"), "--input", str(tmp_path / "test.tsv")]
    assert main(decode + ["--output", str(tmp_path / "plain.jsonl")]) == 0
    assert main(decode + ["--output", str(tmp_path / "traced.jsonl"),
                          "--trace-chains", str(tmp_path / "chains.jsonl")]) == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert plain == (tmp_path / "traced.jsonl").read_bytes()
    trace = (tmp_path / "chains.jsonl").read_bytes()
    lines = [json.loads(line) for line in trace.splitlines()]
    assert [(c["input_id"], c["chain_index"]) for c in lines] == \
        [(i, m) for i in range(len(pairs)) for m in range(50)]
    assert hashlib.sha256(trace).hexdigest() == NPAD_50_TRACE_SHA256


def test_decode_flag_validation(workspace, capsys):
    d = workspace["data"]
    base = ["decode", "--model", workspace["model"],
            "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
            "--input", f"{d}/test.tsv"]
    # a flag the parser cannot read is a usage error
    assert main(base + ["--strategy", "npad", "--chains", "0",
                        "--sigma0", "0.3", "--seed", "1"]) == 2
    assert main(base + ["--strategy", "mystery"]) == 2
    capsys.readouterr()
    # a cell that lacks a flag its strategy needs is a config error
    for flags, message in [
            (["npad", "--sigma0", "0.3", "--seed", "1"], "npad requires chains"),
            (["npad", "--chains", "2", "--seed", "1"], "npad requires sigma0"),
            (["npad", "--chains", "2", "--sigma0", "0.3"], "--seed is required"),
            (["sample"], "--seed is required"),
            (["sample", "--sigma0", "-0.1", "--seed", "1"], "sample requires sigma0 >= 0"),
            (["beam"], "beam requires beam_width"),
            (["diverse", "--beam-width", "2"], "diverse requires eta"),
            (["diverse", "--eta", "0.5"], "diverse requires beam_width"),
            (["greedy", "--beam-width", "3"], "greedy does not take beam_width"),
            (["beam", "--beam-width", "3", "--sigma0", "0.3"], "beam does not take sigma0"),
            (["sample", "--chains", "2", "--seed", "1", "--eta", "0.5"],
             "sample does not take eta"),
            (["greedy", "--no-zero-chain"], "greedy has no chains")]:
        assert main(base + ["--strategy"] + flags) == 1
        assert f"error: config: {message}" in capsys.readouterr().err


TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def run_python(*args, timeout=300):
    """`python ARGS` in a child process that imports this checkout's npad."""
    src_dir = os.path.dirname(os.path.dirname(npad.__file__))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src_dir},
                          capture_output=True, text=True, timeout=timeout)


# `python -c NPAD_IN_1GIB ARGS` is `npad ARGS` with its address space capped at 1 GiB.
NPAD_IN_1GIB = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from npad.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")


def test_too_many_rows_in_flight_exit_1_before_allocating(workspace):
    # 10^8 chains in a 1 GiB address space ended in a MemoryError traceback
    # at the chains' list; the cell is now refused before anything is read
    d = workspace["data"]
    out = workspace["root"] / "rows.jsonl"
    run = run_python(
        "-c", NPAD_IN_1GIB, "decode", "--strategy", "npad", "--sigma0", "0.3",
        "--chains", str(10**8), "--seed", "1", "--model", workspace["model"],
        "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
        "--input", f"{d}/test.tsv", "--output", str(out))
    assert run.returncode == 1
    assert run.stderr.startswith("error: config: chains x beam_width is 100000000 rows")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


def test_huge_exact_search_refused_at_once(workspace):
    # a size check that raised 7 to max_len as a big integer would run for
    # hours here; the timeout only guards against such a hang
    d = workspace["data"]
    run = run_python(
        "-c", NPAD_IN_1GIB, "decode", "--strategy", "exact", "--max-len", str(10**12),
        "--model", workspace["model"], "--vocab-src", f"{d}/vocab_src.txt",
        "--vocab-tgt", f"{d}/vocab_tgt.txt", "--input", f"{d}/test.tsv", timeout=60)
    assert run.returncode == 1
    assert run.stderr == "error: search space 7^1000000000000 exceeds 1000000\n"


def test_extreme_numeric_flags_and_spec_fields(tmp_path):
    # Hypothesis examples of decode, experiment, score, gen-data and train in
    # one child under 1 GiB (tests/cli_fuzz.py): each exits 0, 1 with one
    # `error:` line, or 2
    run = run_python(os.path.join(TESTS_DIR, "cli_fuzz.py"), str(tmp_path), timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("flag, value", [("--patience", "-1"), ("--lr", "-0.1"),
                                         ("--lr-decay", "-0.5")])
def test_negative_training_hyperparameter_exit_1(workspace, capsys, flag, value):
    # a negative patience stopped after the first epoch; a negative lr ascended
    d = workspace["data"]
    out = workspace["root"] / "negative.bin"
    assert main(["train", "--input", f"{d}/train.tsv", "--valid", f"{d}/valid.tsv",
                 "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                 "--model", str(out), flag, value, "--epochs", "1", "--seed", "5"]) == 1
    name = flag[2:].replace("-", "_")
    assert f"error: invalid arguments: {name} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_hyperparameters_exit_1(workspace, capsys):
    d = workspace["data"]
    base = ["decode", "--model", workspace["model"],
            "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
            "--input", f"{d}/test.tsv"]
    assert main(base + ["--strategy", "npad", "--chains", "2", "--sigma0", "nan",
                        "--seed", "1"]) == 1
    assert "sigma0 must be finite" in capsys.readouterr().err
    assert main(base + ["--strategy", "diverse", "--beam-width", "2", "--eta", "inf"]) == 1
    assert "eta must be finite" in capsys.readouterr().err
    assert main(["train", "--input", f"{d}/train.tsv", "--valid", f"{d}/valid.tsv",
                 "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                 "--model", str(workspace["root"] / "nan.bin"), "--lr", "nan",
                 "--epochs", "1", "--seed", "5"]) == 1
    assert "lr must be finite" in capsys.readouterr().err
    assert not (workspace["root"] / "nan.bin").exists()


@pytest.mark.parametrize("name, flags", [
    ("sigma0", ["--strategy", "npad", "--chains", "3", "--sigma0", "1.7e308", "--seed", "1"]),
    ("eta", ["--strategy", "diverse", "--beam-width", "3", "--eta", "1.7e308"])])
def test_overflowing_scale_flags_exit_1(workspace, capsys, name, flags):
    # near the float maximum the chain noise overflowed to NaN scores and the
    # rank penalty to -inf ties, and the decode still exited 0
    d = workspace["data"]
    assert main(["decode", "--model", workspace["model"], "--vocab-src", f"{d}/vocab_src.txt",
                 "--vocab-tgt", f"{d}/vocab_tgt.txt", "--input", f"{d}/test.tsv", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {name} must be <= 1e+100, got 1.7e+308"]


@pytest.mark.parametrize("empty", ["--input", "--valid"])
def test_empty_training_or_validation_set_exit_1(workspace, capsys, empty):
    # an empty --input ended in a ZeroDivisionError traceback
    d = workspace["data"]
    (workspace["root"] / "empty.tsv").write_text("")
    files = {"--input": f"{d}/train.tsv", "--valid": f"{d}/valid.tsv",
             empty: str(workspace["root"] / "empty.tsv")}
    out = workspace["root"] / "empty.bin"
    assert main(["train", *(word for pair in files.items() for word in pair),
                 "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                 "--model", str(out), "--epochs", "1", "--seed", "5"]) == 1
    name = "training" if empty == "--input" else "validation"
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid arguments: {name} set must be non-empty"]
    assert not out.exists()


def test_training_divergence_exit_1(workspace, capsys):
    # the overflow is the one error line; numpy's warnings printed before it
    d = workspace["data"]
    out = workspace["root"] / "diverged.bin"
    assert main(["train", "--input", f"{d}/train.tsv", "--valid", f"{d}/valid.tsv",
                 "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                 "--model", str(out), "--lr", "1e300", "--plain-sgd", "--epochs", "1",
                 "--seed", "5"]) == 1
    assert capsys.readouterr().err.splitlines() == \
        ["error: training diverged: overflow encountered in matmul in epoch 1"]
    assert not out.exists()


def test_intractable_exact_search_exit_1(workspace, capsys):
    d = workspace["data"]
    rc = main(["decode", "--strategy", "exact", "--model", workspace["model"],
               "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
               "--input", f"{d}/test.tsv", "--max-len", "20"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: search space 7^20 exceeds" in err
    assert "Traceback" not in err


def test_corrupt_model_exit_1(workspace, capsys):
    # a truncated file and a shape field asking for about 320 GB both end in
    # a format error, before any payload is read
    d = workspace["data"]
    blob = bytearray(open(workspace["model"], "rb").read())
    shape_field = 32 + 4 + len(b"src_embed") + 4
    huge = bytearray(blob)
    huge[shape_field:shape_field + 8] = struct.pack("<2I", 200000, 200000)
    for i, corrupt in enumerate((blob[:len(blob) // 2], huge)):
        path = workspace["root"] / f"corrupt{i}.bin"
        path.write_bytes(bytes(corrupt))
        rc = main(["decode", "--strategy", "greedy", "--model", str(path),
                   "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                   "--input", f"{d}/test.tsv"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: format:" in err and "Traceback" not in err


def test_malformed_text_files_exit_1(workspace, capsys):
    # invalid UTF-8 in a vocab, pair or source file, an unknown word and an
    # empty source end in a format error naming the file
    d = workspace["data"]
    vocab, pairs = open(f"{d}/vocab_src.txt", "rb").read(), open(f"{d}/test.tsv", "rb").read()
    path = workspace["root"] / "bad"
    bad = str(path)
    cases = [("vocab", vocab + b"\xff\n")] + [
        (which, pairs + damage) for which in ("pairs", "sources")
        for damage in (b"\xff\n", b"w99\tw00\n", b" \tw00\n")]
    for which, blob in cases:
        path.write_bytes(blob)
        vocab_src = bad if which == "vocab" else f"{d}/vocab_src.txt"
        rest = ["--model", workspace["model"], "--vocab-src", vocab_src,
                "--vocab-tgt", f"{d}/vocab_tgt.txt"]
        if which == "pairs":
            rc = main(["score", "--input", bad] + rest)
        else:
            rc = main(["decode", "--strategy", "greedy", "--input",
                       bad if which == "sources" else f"{d}/test.tsv"] + rest)
        err = capsys.readouterr().err
        assert rc == 1, (which, blob[-10:])
        assert f"error: format: {bad}" in err and "Traceback" not in err


def test_malformed_spec_exit_1(workspace, capsys):
    # a spec that is not an object, or has a field of the wrong type, ends in a
    # config error before anything runs, not in a traceback or failed cells;
    # a bad cell's error names the file and the cell
    bodies = [[], {"cells": {}}, {"cells": ["greedy"]}, {"base_seed": "x"}, {"max_len": "7"}]
    bad_cells = [{"strategy": "beam", "beam_width": "3"},
                 {"strategy": "npad", "chains": 2.5, "sigma0": 0.3},
                 {"strategy": "npad", "chains": 2, "sigma0": "0.3"},
                 {"strategy": "npad", "sigma0": 0.3},
                 {"strategy": "npad", "chains": 2, "sigma0": 10**400}]
    with open(_write_spec(workspace, "good.json", [{"strategy": "greedy"}])) as f:
        good = json.load(f)
    for i, body in enumerate(bodies + [{"cells": [cell]} for cell in bad_cells]):
        path = workspace["root"] / f"bad{i}.json"
        path.write_text(json.dumps(dict(good, **body) if isinstance(body, dict) else body))
        out = str(workspace["root"] / f"bad{i}.csv")
        rc = main(["experiment", "--spec", str(path), "--output", out])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1, body
        assert len(lines) == 1 and lines[0].startswith(f"error: config: {path}: "), (body, lines)
        if i >= len(bodies):                  # the cell's own error, as Cell words it
            with pytest.raises(ConfigError) as e:
                Cell(**bad_cells[i - len(bodies)])
            assert lines[0] == f"error: config: {path}: cell 0: {e.value}"
        assert not os.path.exists(out)


def test_unknown_flag_and_missing_file_are_distinct(workspace, capsys):
    d = workspace["data"]
    rc_flag = main(["decode", "--strategy", "greedy", "--model", workspace["model"],
                    "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                    "--input", f"{d}/test.tsv", "--bogus-flag"])
    flag_err = capsys.readouterr().err
    rc_file = main(["decode", "--strategy", "greedy", "--model", "/does/not/exist.bin",
                    "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                    "--input", f"{d}/test.tsv"])
    file_err = capsys.readouterr().err
    assert rc_flag != 0 and rc_file != 0
    assert "bogus-flag" in flag_err
    assert "file not found" in file_err


@pytest.mark.parametrize("probe", ["out-dir", "input", "model"])
def test_file_errors_are_one_error_line(workspace, tmp_path, capsys, probe):
    # FileExistsError and IsADirectoryError (the model's before training, see
    # below) end in one error line naming the path, and leave no file
    d = workspace["data"]
    a_file, a_dir = str(tmp_path / "a_file"), str(tmp_path / "a_dir")
    open(a_file, "w").close()
    os.mkdir(a_dir)
    train = {"--input": f"{d}/train.tsv", "--valid": f"{d}/valid.tsv",
             "--vocab-src": f"{d}/vocab_src.txt", "--vocab-tgt": f"{d}/vocab_tgt.txt",
             "--model": str(tmp_path / "m.bin"), "--d-emb": "2", "--d-hid": "2",
             "--epochs": "1", "--seed": "5"}
    if probe == "out-dir":
        argv = ["gen-data", "--task", "copy", "--vocab-size", "4", "--train-count", "3",
                "--seed", "1", "--out-dir", a_file]
        reason = "File exists"
    else:
        argv = ["train"] + [x for flag in {**train, f"--{probe}": a_dir}.items() for x in flag]
        reason = "Is a directory"
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: file: {a_file if probe == 'out-dir' else a_dir}: {reason}"]
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file"]
    assert os.listdir(a_dir) == []


@pytest.mark.parametrize("flag", ["--model", "--trace"])
@pytest.mark.parametrize("bad", ["a_dir", "missing/out"])
def test_train_refuses_an_unwritable_output_before_training(workspace, tmp_path, capsys,
                                                            monkeypatch, flag, bad):
    # a directory, or a path in a directory that does not exist, is refused
    # at once: train() never runs and nothing is written
    monkeypatch.setattr("npad.cli.train", lambda *args: pytest.fail("train() was called"))
    d = workspace["data"]
    os.mkdir(tmp_path / "a_dir")
    outputs = {"--model": str(tmp_path / "m.bin"), "--trace": str(tmp_path / "t.csv"),
               flag: str(tmp_path / bad)}
    argv = ["train", "--input", f"{d}/train.tsv", "--valid", f"{d}/valid.tsv",
            "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
            "--d-emb", "2", "--d-hid", "2", "--epochs", "1", "--seed", "5"]
    assert main(argv + [x for item in outputs.items() for x in item]) == 1
    lines = capsys.readouterr().err.splitlines()
    if bad == "a_dir":
        assert lines == [f"error: file: {tmp_path / 'a_dir'}: Is a directory"]
    else:
        assert lines == [f"error: file not found: {tmp_path / 'missing'}"]
    assert sorted(os.listdir(tmp_path)) == ["a_dir"] and os.listdir(tmp_path / "a_dir") == []


@pytest.mark.parametrize("command, flag, work", [
    ("decode", "--output", "decode_corpus"), ("decode", "--trace-chains", "decode_corpus"),
    ("score", "--output", "pair_nlls"), ("experiment", "--output", "run_experiment"),
    ("report", "--output", "render_report")])
@pytest.mark.parametrize("bad", ["a_dir", "missing/out"])
def test_every_command_refuses_an_unwritable_output_before_its_work(
        workspace, tmp_path, capsys, monkeypatch, command, flag, work, bad):
    # decode once ran every sentence, wrote --output and only then failed on
    # the trace, naming a temporary file the user never gave
    monkeypatch.setattr(f"npad.cli.{work}", lambda *args, **kw: pytest.fail(f"{work} was called"))
    d = workspace["data"]
    files = ["--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt"]
    results = workspace["root"] / "header.csv"
    results.write_text("strategy,beam_width,sigma0,chains,eta,mean_nll,mean_nll_per_token,bleu\n")
    argv = {
        "decode": ["decode", "--strategy", "npad", "--chains", "3", "--sigma0", "0.3",
                   "--seed", "1", "--model", workspace["model"], *files,
                   "--input", f"{d}/test.tsv", "--trace-chains", str(tmp_path / "t.jsonl")],
        "score": ["score", "--model", workspace["model"], *files, "--input", f"{d}/test.tsv"],
        "experiment": ["experiment", "--spec", _write_spec(workspace, "refuse.json",
                                                           [{"strategy": "greedy"}])],
        "report": ["report", "--input", str(results)],
    }[command]
    os.mkdir(tmp_path / "a_dir")
    assert main(argv + ["--output", str(tmp_path / "out"), flag, str(tmp_path / bad)]) == 1
    lines = capsys.readouterr().err.splitlines()
    if bad == "a_dir":
        assert lines == [f"error: file: {tmp_path / 'a_dir'}: Is a directory"]
    else:
        assert lines == [f"error: file not found: {tmp_path / 'missing'}"]
    assert sorted(os.listdir(tmp_path)) == ["a_dir"] and os.listdir(tmp_path / "a_dir") == []


def test_decode_checks_no_chain_trace_it_will_not_write(workspace, tmp_path, capsys):
    # a strategy without chains ignores --trace-chains, so its path is not refused
    d = workspace["data"]
    out = tmp_path / "out.jsonl"
    assert main(["decode", "--strategy", "greedy", "--model", workspace["model"],
                 "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
                 "--input", f"{d}/test.tsv", "--output", str(out),
                 "--trace-chains", str(tmp_path / "missing" / "t.jsonl")]) == 0
    assert "--trace-chains only applies to npad/sample; ignored" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 6


def test_score_jsonl(workspace, capsys):
    d = workspace["data"]
    rc = main(["score", "--model", workspace["model"],
               "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
               "--input", f"{d}/test.tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 6
    assert all(r["logp"] < 0 for r in recs)


def test_score_is_the_forced_search_bit_for_bit_in_file_order(workspace, capsys):
    # npad score runs training's forward over length groups; each line must
    # be the pair's forced search on its bound source, in file order. Three
    # (source, target) length classes interleave, one of them over 16 pairs
    d = workspace["data"]
    words = load_vocab(f"{d}/vocab_src.txt").symbols[3:]
    classes = [(1, 2), (3, 1), (1, 2), (2, 4), (1, 2)]
    path = workspace["root"] / "interleaved.tsv"
    with open(path, "w") as f:
        for i in range(40):
            ls, lt = classes[i % len(classes)]
            src = " ".join(words[(i + k) % len(words)] for k in range(ls))
            tgt = " ".join(words[(3 * i + k) % len(words)] for k in range(lt))
            f.write(f"{src}\t{tgt}\n")
    files = ["--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt"]
    assert main(["score", "--model", workspace["model"], *files, "--input", str(path)]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    params = load_model(workspace["model"])
    pairs = load_pairs(str(path), load_vocab(f"{d}/vocab_src.txt"), load_vocab(f"{d}/vocab_tgt.txt"))
    assert [r["input_id"] for r in recs] == list(range(40))
    assert [r["n_target_tokens"] for r in recs] == [len(p.target) for p in pairs]
    assert [r["logp"] for r in recs] == [
        forced_scores(BoundModel(params, p.source), [p.target], len(p.target))[0] for p in pairs]


def _write_spec(workspace, name, cells, base_seed=7):
    d = workspace["data"]
    spec = {"model": workspace["model"], "test_set": f"{d}/test.tsv",
            "vocab_src": f"{d}/vocab_src.txt", "vocab_tgt": f"{d}/vocab_tgt.txt",
            "base_seed": base_seed, "cells": cells}
    path = str(workspace["root"] / name)
    with open(path, "w") as f:
        json.dump(spec, f)
    return path


def test_experiment_byte_identical_reruns_and_workers(workspace):
    spec = _write_spec(workspace, "spec.json", [
        {"strategy": "greedy"},
        {"strategy": "sample", "chains": 3},
        {"strategy": "npad", "sigma0": 0.3, "chains": 4},
        {"strategy": "beam", "beam_width": 3},
        {"strategy": "diverse", "beam_width": 3, "eta": 0.5},
    ])
    outs = [str(workspace["root"] / f"r{i}.csv") for i in range(3)]
    assert main(["experiment", "--spec", spec, "--seed", "7", "--output", outs[0]]) == 0
    assert main(["experiment", "--spec", spec, "--seed", "7", "--output", outs[1]]) == 0
    assert main(["experiment", "--spec", spec, "--seed", "7", "--output", outs[2],
                 "--workers", "3"]) == 0
    blobs = [open(o, "rb").read() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_experiment_seed_flag_overrides_spec(workspace):
    spec = _write_spec(workspace, "spec2.json",
                       [{"strategy": "sample", "chains": 2}], base_seed=1)
    a = str(workspace["root"] / "sa.csv")
    b = str(workspace["root"] / "sb.csv")
    assert main(["experiment", "--spec", spec, "--output", a]) == 0
    assert main(["experiment", "--spec", spec, "--seed", "1", "--output", b]) == 0
    assert open(a).read() == open(b).read()


def test_report_round_trip_counts_and_grouping(workspace, capsys):
    spec = _write_spec(workspace, "spec3.json", [
        {"strategy": "npad", "sigma0": 0.3, "chains": 2},
        {"strategy": "greedy"},
        {"strategy": "npad", "sigma0": 0.1, "chains": 2},
    ])
    csv_path = str(workspace["root"] / "rep.csv")
    assert main(["experiment", "--spec", spec, "--seed", "2", "--output", csv_path]) == 0
    assert main(["report", "--input", csv_path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l and not set(l) <= {"-", " "}]
    assert len(lines) == 1 + 3                       # header + one row per cell
    assert "NLL↓" in lines[0] and "BLEU↑" in lines[0]
    rows = [l.split() for l in lines[1:]]
    assert [row[0] for row in rows] == ["greedy", "npad", "npad"]
    assert [row[1] for row in rows[1:]] == ["0.1", "0.3"]   # sigma0: the width is blank


def test_report_header_only(workspace, capsys, tmp_path):
    path = str(tmp_path / "empty.csv")
    with open(path, "w") as f:
        f.write("strategy,beam_width,sigma0,chains,eta,mean_nll,mean_nll_per_token,bleu\n")
    assert main(["report", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "strategy" in out


def test_report_schema_mismatch(tmp_path, capsys):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as f:
        f.write("a,b,c\n1,2,3\n")
    assert main(["report", "--input", path]) == 1
    assert "format" in capsys.readouterr().err


HEADER = b"strategy,beam_width,sigma0,chains,eta,mean_nll,mean_nll_per_token,bleu\n"


@pytest.mark.parametrize("row, says", [
    (b"mystery,,,,,1.0,0.5,0.2\n", "unknown strategy 'mystery'"),
    (b"beam,five,,,,1.0,0.5,0.2\n", "beam_width 'five' is not a number"),
    (b"npad,,high,4,,1.0,0.5,0.2\n", "sigma0 'high' is not a number"),
    (b"greedy,,,,,1.0,0.5,n/a\n", "bleu 'n/a' is not a number"),
    (b"greedy,,,,,1.0,0.5,0.2\xff\n", "not UTF-8 text"),
])
def test_report_malformed_row(tmp_path, capsys, row, says):
    # a bad row ends in a format error naming the file and its line
    path = tmp_path / "bad.csv"
    path.write_bytes(HEADER + b"greedy,,,,,1.0,0.5,0.2\n" + row)
    assert main(["report", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: format: {path}:3: ") and says in err
    assert "Traceback" not in err


def test_inputs_never_mutated(workspace):
    d = workspace["data"]
    before = {name: open(os.path.join(d, name), "rb").read() for name in os.listdir(d)}
    spec = _write_spec(workspace, "spec4.json", [{"strategy": "greedy"}])
    main(["experiment", "--spec", spec, "--seed", "3",
          "--output", str(workspace["root"] / "mut.csv")])
    main(["decode", "--strategy", "greedy", "--model", workspace["model"],
          "--vocab-src", f"{d}/vocab_src.txt", "--vocab-tgt", f"{d}/vocab_tgt.txt",
          "--input", f"{d}/test.tsv", "--output", str(workspace["root"] / "mut.jsonl")])
    after = {name: open(os.path.join(d, name), "rb").read() for name in os.listdir(d)}
    assert before == after
