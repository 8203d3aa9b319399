"""Reruns write the same bytes: every model kind, trained twice in fresh
processes on one small corpus, leaves equal sha256 manifests (run-directory
names masked, as `tests/artifacts.py` masks them).

Both passes run at the same BLAS thread count; the comparison across thread
counts is `python tests/artifacts.py --against ROOT`.
"""

import os

import artifacts
import botdetect

SRC = os.path.dirname(os.path.dirname(botdetect.__file__))
CORPUS = ["--manifest", "../corpus/manifest.txt"]
KINDS = {  # model -> the train flags of its task
    **{model: ["--task", "account"] for model in ("logreg", "sgd", "forest", "adaboost", "mlp")},
    **{model: ["--task", "tweet", "--embedding", "../corpus/glove_25d.txt", "--epochs", "2"]
       for model in ("lstm", "contextual")},
}


def test_every_model_kind_trains_to_the_same_bytes_twice(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    synth = [("synth", ".", ["synth", "--out", "corpus", "--accounts", "20",
                             "--tweets-per-account", "4", "--embedding-dim", "25"])]
    assert artifacts.run(synth, str(tmp_path), env)[0] == "exit 0 synth"
    manifests = []
    for rerun in ("first", "second"):
        (tmp_path / rerun).mkdir()
        commands = [(model, rerun, ["train", "--model", model, *flags, *CORPUS,
                                    "--seed", "4", "--out", f"runs/{model}"])
                    for model, flags in KINDS.items()]
        manifests.append(artifacts.run(commands, str(tmp_path), env)
                         + artifacts.file_digests(str(tmp_path / rerun)))
    first, second = manifests
    assert [line for line in first if line.startswith("exit ")] == [
        f"exit 0 {model}" for model in KINDS]
    # model.txt, report.kv/.txt, roc.csv and run.kv of each kind, with
    # trace.csv for the nets, resample.kv for the baselines and `latest`.
    assert len(first) == 3 * len(KINDS) + 7 * len(KINDS)
    assert first == second
