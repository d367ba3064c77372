#!/usr/bin/env python3
"""Regenerate the benchmark's stored fixtures (run from the repository root).

  python3 bench/fixtures.py model
      Retrain the frozen decode model with the acceptance-fixture recipe
      (gen seed 101, init seed 7, train seed 13, 9 epochs, lr 0.25, batch 16)
      and rewrite bench/data/translate.bin and its .sha256. Takes about two
      minutes. Prints the beam-10 mean NLL on the 100 test sentences, which
      is 5.1753 for the stored model.

  python3 bench/fixtures.py references
      Recompute the reference outputs every workload compares against at
      the default seed and rewrite bench/data/references.json.

Both are deterministic: on an unchanged library they rewrite the same bytes.
"""
import json
import sys

from run import bootstrap


def make_model():
    from npad.evaluate import Cell, decode_corpus, mean_nll
    from npad.serialize import save_model
    from npad.tasks import gen_task, split_pairs
    from npad.train import TrainConfig, train

    import workloads as wl

    data = gen_task(*wl.TASK, wl.FIXTURE_COUNT, seed=wl.GEN_SEED)
    train_set, valid_set, test_set = split_pairs(data.pairs, wl.TRAIN_COUNT, wl.VALID_COUNT,
                                                 wl.TEST_COUNT)
    params, _ = train(wl.initial_params(data), train_set, valid_set,
                      TrainConfig(epochs=9, **wl.TRAIN_RECIPE))
    save_model(wl.MODEL_PATH, params)
    with open(wl.MODEL_SHA_PATH, "w") as f:
        f.write(f"{wl.sha256_file(wl.MODEL_PATH)}  translate.bin\n")
    records = decode_corpus(params, [p.source for p in test_set], [p.target for p in test_set],
                            Cell(strategy="beam", beam_width=10), 0)
    print(f"wrote {wl.MODEL_PATH}; beam-10 mean NLL on the test split {mean_nll(records):.4f}")


def make_references():
    from npad.tasks import gen_task

    import workloads as wl

    decode_model = wl.load_frozen_model()
    outputs = {}
    for workload in wl.WORKLOADS:
        data = gen_task(*wl.TASK, wl.corpus_count(workload), seed=wl.GEN_SEED)
        params = wl.initial_params(data) if workload == wl.TRAIN_WORKLOAD else decode_model
        outputs[workload] = wl.reference_outputs(workload, params, data.pairs)
        print(f"{workload}: {len(outputs[workload])} reference outputs")
    doc = {"model_sha256": wl.sha256_file(wl.MODEL_PATH), "seed": wl.DEFAULT_SEED,
           "command": "python3 bench/fixtures.py references", "outputs": outputs}
    with open(wl.REFERENCES_PATH, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("model", "references"):
        print(__doc__, file=sys.stderr)
        return 2
    if not bootstrap():
        return 2
    make_model() if argv[0] == "model" else make_references()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
