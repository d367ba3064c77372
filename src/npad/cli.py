"""Command-line surface: gen-data | train | decode | score | experiment | report.

Every command is deterministic given its flags and input files; stochastic
commands require an explicit --seed. Output paths are checked before any
work, output files are written atomically and input files are never modified.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .backprop import pair_nlls
from .core import ContractError, RngStream
from .decode import SearchSpaceError
from .evaluate import (
    CHAINED,
    HYPERPARAMETERS,
    RESULT_COLUMNS,
    STRATEGIES,
    Cell,
    decode_corpus,
    load_spec,
    run_experiment,
    write_results_csv,
)
from .model import Dims, VocabError, init_params, tensor_shapes
from .serialize import FormatError, _lines, atomic_write, load_model, load_pairs, load_sources, load_vocab, save_model, save_pairs, save_vocab
from .tasks import ConfigError, TASK_KINDS, gen_task, split_pairs
from .train import MAX_PARAMS, DivergenceError, TrainConfig, train


def _at_least(kind, name, low=1):
    def convert(text):
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value
    return convert


def _model_files(p) -> None:
    """The model, vocabulary, input and output flags of decode and score."""
    for flag in ("--model", "--vocab-src", "--vocab-tgt", "--input"):
        p.add_argument(flag, required=True)
    p.add_argument("--output", help="default: stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic task corpus")
    p.add_argument("--task", required=True, choices=TASK_KINDS)
    p.add_argument("--vocab-size", type=_at_least(int, "--vocab-size"), required=True)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--train-count", type=_at_least(int, "--train-count"), required=True)
    p.add_argument("--valid-count", type=_at_least(int, "--valid-count", 0), default=0)
    p.add_argument("--test-count", type=_at_least(int, "--test-count", 0), default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data, outputs=lambda a: ())

    p = sub.add_parser("train", help="train a model on a pair file")
    p.add_argument("--input", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--vocab-src", required=True)
    p.add_argument("--vocab-tgt", required=True)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--trace", help="output CSV: epoch,train_nll,valid_nll")
    p.add_argument("--d-emb", type=_at_least(int, "--d-emb"), default=16)
    p.add_argument("--d-hid", type=_at_least(int, "--d-hid"), default=32)
    p.add_argument("--epochs", type=_at_least(int, "--epochs"), default=30)
    p.add_argument("--batch-size", type=_at_least(int, "--batch-size"),
                   default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--lr-decay", type=float, default=TrainConfig.lr_decay)
    p.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--plain-sgd", action="store_true", help="disable adaptive scaling")
    p.add_argument("--stop-below", type=float, help="stop when valid per-token NLL drops below")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_train, outputs=lambda a: (a.model, a.trace))

    p = sub.add_parser("decode", help="decode a test file, one JSON line per input")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    _model_files(p)
    for name, kind in HYPERPARAMETERS.items():
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=_at_least(int, flag) if kind is int else float)
    p.add_argument("--no-zero-chain", action="store_true",
                   help="disable the zero-noise guarantee chain")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=_at_least(int, "--workers"), default=1)
    p.add_argument("--max-len", type=_at_least(int, "--max-len"))
    p.add_argument("--trace-chains", help="JSON-lines per chain (npad/sample only)")
    p.set_defaults(func=cmd_decode, outputs=lambda a: (
        a.output, a.trace_chains if a.strategy in CHAINED else None))

    p = sub.add_parser("score", help="force-decode log-probabilities of pair file")
    _model_files(p)
    p.set_defaults(func=cmd_score, outputs=lambda a: (a.output,))

    p = sub.add_parser("experiment", help="run every cell of an experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", help="results CSV; default: stdout")
    p.add_argument("--seed", type=int, help="override the spec's base_seed")
    p.add_argument("--workers", type=_at_least(int, "--workers"), default=1)
    p.set_defaults(func=cmd_experiment, outputs=lambda a: (a.output,))

    p = sub.add_parser("report", help="render a results CSV as an aligned table")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="default: stdout")
    p.set_defaults(func=cmd_report, outputs=lambda a: (a.output,))
    return parser


def _output(path: str | None):
    """A context yielding the file at path, written atomically, or stdout
    when no path is given."""
    return atomic_write(path) if path else contextlib.nullcontext(sys.stdout)


def _write_lines(path: str | None, lines: list[str]) -> None:
    with _output(path) as f:
        f.writelines(line + "\n" for line in lines)


def _load(args):
    """The model and the source and target vocabularies the flags name."""
    return load_model(args.model), load_vocab(args.vocab_src), load_vocab(args.vocab_tgt)


def cmd_gen_data(args) -> int:
    import os

    total = args.train_count + args.valid_count + args.test_count
    data = gen_task(args.task, args.vocab_size, (args.min_len, args.max_len), total, args.seed)
    splits = split_pairs(data.pairs, args.train_count, args.valid_count, args.test_count)
    os.makedirs(args.out_dir, exist_ok=True)
    save_vocab(os.path.join(args.out_dir, "vocab_src.txt"), data.src_vocab)
    save_vocab(os.path.join(args.out_dir, "vocab_tgt.txt"), data.tgt_vocab)
    for name, pairs in zip(("train", "valid", "test"), splits):
        if pairs:
            save_pairs(os.path.join(args.out_dir, f"{name}.tsv"), pairs,
                       data.src_vocab, data.tgt_vocab)
    return 0


def _check_output(path: str) -> None:
    """Refuse, before any work, an output path the save would fail on: a
    directory, or a path whose directory does not exist."""
    import errno
    import os

    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), parent)


def cmd_train(args) -> int:
    src_vocab = load_vocab(args.vocab_src)
    tgt_vocab = load_vocab(args.vocab_tgt)
    dataset = load_pairs(args.input, src_vocab, tgt_vocab)
    valid = load_pairs(args.valid, src_vocab, tgt_vocab)
    dims = Dims(d_emb=args.d_emb, d_hid=args.d_hid, n_src=len(src_vocab), n_tgt=len(tgt_vocab))
    size = sum(math.prod(shape) for shape in tensor_shapes(dims).values())
    if size > MAX_PARAMS:
        raise ConfigError(f"d_emb {args.d_emb} and d_hid {args.d_hid} make {size} parameters, "
                          f"more than the {MAX_PARAMS} allowed")
    params = init_params(RngStream(args.seed), dims)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, lr_decay=args.lr_decay,
                      clip_norm=args.clip_norm, batch_size=args.batch_size,
                      patience=args.patience, seed=args.seed,
                      adaptive=not args.plain_sgd, stop_below_token_nll=args.stop_below)
    best, trace = train(params, dataset, valid, cfg)
    save_model(args.model, best)
    if args.trace:
        with atomic_write(args.trace) as f:
            f.write("epoch,train_nll,valid_nll\n")
            for row in trace:
                f.write(f"{row.epoch},{row.train_nll!r},{row.valid_nll!r}\n")
    last = trace[-1]
    print(f"trained {len(trace)} epochs; valid NLL {last.valid_nll:.4f} "
          f"({last.valid_nll_token:.4f}/token)", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    if args.strategy in CHAINED and args.seed is None:
        raise ConfigError(f"--seed is required for --strategy {args.strategy}")
    cell = Cell(args.strategy, include_zero_chain=not args.no_zero_chain,
                **{name: getattr(args, name) for name in HYPERPARAMETERS})
    params, src_vocab, tgt_vocab = _load(args)
    sources = load_sources(args.input, src_vocab)
    base_seed = args.seed if args.seed is not None else 0
    trace = bool(args.trace_chains) and cell.strategy in CHAINED
    if args.trace_chains and not trace:
        print("note: --trace-chains only applies to npad/sample; ignored", file=sys.stderr)
    records = decode_corpus(params, sources, None, cell, base_seed,
                            args.max_len, args.workers, keep_chains=trace)
    lines = []
    for r in records:
        lines.append(json.dumps({
            "input_id": r.input_id, "strategy": r.strategy,
            "tokens": tgt_vocab.decode(r.tokens), "logp": r.rescored_logp,
            "complete": r.complete, "steps": len(r.tokens), "seed": args.seed,
        }))
    _write_lines(args.output, lines)
    if trace:
        _write_lines(args.trace_chains, [
            json.dumps({
                "chain_index": c.chain_index, "sigma0_effective": c.sigma0_effective,
                "tokens": c.hypothesis.tokens, "noisy_logp": c.noisy_logp,
                "rescored_logp": c.rescored_logp, "input_id": r.input_id,
            })
            for r in records for c in r.chains])
    return 0


def cmd_score(args) -> int:
    params, src_vocab, tgt_vocab = _load(args)
    pairs = load_pairs(args.input, src_vocab, tgt_vocab)
    # 0.0 - nll is bitwise `score_sequence` (see there)
    _write_lines(args.output, [
        json.dumps({"input_id": i, "logp": 0.0 - nll, "n_target_tokens": len(pair.target)})
        for i, (pair, nll) in enumerate(zip(pairs, pair_nlls(params, pairs)))])
    return 0


def cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    results = run_experiment(spec, workers=args.workers, base_seed=args.seed)
    for r in results:
        if r.error:
            print(f"warning: cell {r.cell} failed: {r.error}", file=sys.stderr)
    with _output(args.output) as f:
        write_results_csv(f, results)
    return 0


REPORT_HEADER = ("strategy", "width", "sigma0", "chains", "eta",
                 "NLL↓", "NLL/tok↓", "BLEU↑")


def render_report(rows: list[list[str]]) -> str:
    """Aligned table, rows sorted by strategy, then width, sigma0, chains and
    eta ascending (a blank first); metric columns carry better-direction markers."""
    def sort_key(row):
        def num(x, default=-1.0):
            return float(x) if x else default
        return (STRATEGIES.index(row[0]), num(row[1]), num(row[2]), num(row[3]), num(row[4]))

    def disp(value, col):
        if col >= 5 and value:
            return f"{float(value):.4f}"
        return value

    table = [list(REPORT_HEADER)]
    for row in sorted(rows, key=sort_key):
        table.append([disp(v, c) for c, v in enumerate(row)])
    widths = [max(len(r[c]) for r in table) for c in range(len(REPORT_HEADER))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                               for c, (cell, w) in enumerate(zip(row, widths))).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _report_row(where: str, line: str) -> list[str]:
    """The cells of one results CSV row: a known strategy, then numbers or blanks."""
    cols = line.split(",")
    if len(cols) != len(RESULT_COLUMNS):
        raise FormatError(f"{where}: expected {len(RESULT_COLUMNS)} columns")
    if cols[0] not in STRATEGIES:
        raise FormatError(f"{where}: unknown strategy {cols[0]!r}")
    for name, value in zip(RESULT_COLUMNS[1:], cols[1:]):
        try:
            float(value or "0")                  # a blank cell is a field the cell leaves unset
        except ValueError:
            raise FormatError(f"{where}: {name} {value!r} is not a number") from None
    return cols


def cmd_report(args) -> int:
    lines = [(ln, line) for ln, line in enumerate(_lines(args.input), start=1) if line.strip()]
    if not lines or lines[0][1].split(",") != list(RESULT_COLUMNS):
        raise FormatError(f"{args.input}: expected header {','.join(RESULT_COLUMNS)}")
    rows = [_report_row(f"{args.input}:{ln}", line) for ln, line in lines[1:]]
    with _output(args.output) as f:
        f.write(render_report(rows) + "\n")
    return 0


# Each documented error class and the label its message follows on stderr.
ERROR_LABELS = {FormatError: "format: ", ConfigError: "config: ", VocabError: "vocab: ",
                DivergenceError: "training diverged: ", SearchSpaceError: "",
                ContractError: "invalid arguments: "}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for path in args.outputs(args):         # the files the command will write
            if path:
                _check_output(path)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
    except OSError as e:
        where = e.filename2 or e.filename       # a rename's target, the path given, is second
        print("error: file: " + (f"{where}: {e.strerror}" if where else str(e)), file=sys.stderr)
    except tuple(ERROR_LABELS) as e:
        label = next(text for kind, text in ERROR_LABELS.items() if isinstance(e, kind))
        print(f"error: {label}{e}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
