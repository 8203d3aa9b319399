"""Each command loads only the layer modules its own path needs, defines
its records without `dataclasses`, and one process builds the argument
parser once.

Every check runs `main` in a fresh interpreter and reads `sys.modules`
after it returns, so no module that another test imported can hide a load.
"""

import json
import os
import subprocess
import sys

import pytest

import botdetect
from botdetect.cli import build_parser, main

SRC = os.path.dirname(os.path.dirname(botdetect.__file__))
# Runs each argv list of argv[1] (JSON) through one `main`, then prints the
# exit codes, the parser builds and the loaded botdetect modules, with
# `dataclasses` among them if it was imported.
PROBE = """
import json, sys
from botdetect.cli import build_parser, main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
mods = sorted(m for m in sys.modules if m.startswith("botdetect") or m == "dataclasses")
print(json.dumps([codes, build_parser.cache_info().misses, mods]))
"""

NET_CODE = ("botdetect.nnet.model", "botdetect.nnet.lstm", "botdetect.embedding",
            "botdetect.tokenizer", "botdetect.introspect")


def _probe(commands, cwd):
    """(exit codes, parser builds, loaded botdetect modules and
    `dataclasses`, stdout) of the commands run in order in one fresh
    process."""
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    codes, builds, mods = json.loads(last)
    return codes, builds, set(mods), printed


def _baseline_or_resampler(mods):
    return sorted(m for m in mods
                  if m.startswith("botdetect.baselines") or m == "botdetect.resample")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small corpus with fixture embeddings, a contextual net checkpoint
    and a forest checkpoint."""
    root = tmp_path_factory.mktemp("startup")
    manifest = str(root / "corpus" / "manifest.txt")
    embedding = str(root / "corpus" / "glove_25d.txt")
    assert main(["synth", "--out", str(root / "corpus"), "--accounts", "12",
                 "--tweets-per-account", "4", "--seed", "5", "--embedding-dim", "25"]) == 0
    assert main(["train", "--task", "tweet", "--model", "contextual", "--manifest", manifest,
                 "--embedding", embedding, "--epochs", "1", "--out", str(root / "net")]) == 0
    assert main(["train", "--task", "account", "--model", "forest", "--n-trees", "3",
                 "--manifest", manifest, "--out", str(root / "forest")]) == 0
    return {
        "root": root, "manifest": manifest, "embedding": embedding,
        "net": str(root / "net" / "latest" / "model.txt"),
        "forest": str(root / "forest" / "latest" / "model.txt"),
    }


def _scoring_argv(work, command, out):
    argv = [command, "--checkpoint", work["net"], "--manifest", work["manifest"],
            "--embedding", work["embedding"], "--out", out]
    return argv + (["--tweet-index", "3", "--cell-state"] if command == "inspect" else [])


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_scoring_a_net_loads_no_baseline_or_resampler(work, tmp_path, command):
    codes, _, mods, _ = _probe([_scoring_argv(work, command, "o")], tmp_path)
    assert codes == [0]
    assert "botdetect.nnet.model" in mods
    assert _baseline_or_resampler(mods) == []


def test_eval_of_a_forest_loads_the_baselines_and_no_net(work, tmp_path):
    codes, _, mods, printed = _probe(
        [["eval", "--checkpoint", work["forest"], "--manifest", work["manifest"]]], tmp_path)
    assert codes == [0] and printed[0] == "evaluation report (positive class: bot)"
    assert "botdetect.baselines.forest" in mods
    assert sorted(mods.intersection(NET_CODE)) == []


@pytest.mark.parametrize("command", ["bench", "train"])
def test_account_runs_load_no_net_code(work, tmp_path, command):
    if command == "bench":
        (tmp_path / "rows.bench").write_text(
            "default.task = account\n"
            f"default.manifest = {work['manifest']}\n"
            "default.n_trees = 3\n"
            "default.n_stumps = 5\n"
            "row.forest.model = forest\n"
            "row.boost.model = adaboost\n"
            "row.boost.resample = smotenn\n", encoding="utf-8")
        argv = ["bench", "--config", "rows.bench", "--out", "b"]
    else:
        argv = ["train", "--task", "account", "--model", "adaboost", "--n-stumps", "5",
                "--resample", "smotenn", "--manifest", work["manifest"], "--out", "r"]
    codes, _, mods, _ = _probe([argv], tmp_path)
    assert codes == [0]
    assert {"botdetect.baselines.boost", "botdetect.resample"} <= mods
    assert sorted(mods.intersection(NET_CODE)) == []
    assert "dataclasses" not in mods


def test_tweet_training_loads_no_baseline_resampler_or_introspection(work, tmp_path):
    codes, _, mods, _ = _probe(
        [["train", "--task", "tweet", "--model", "lstm", "--manifest", work["manifest"],
          "--embedding", work["embedding"], "--epochs", "1", "--out", "r"]], tmp_path)
    assert codes == [0]
    assert "botdetect.nnet.lstm" in mods
    assert _baseline_or_resampler(mods) == [] and "botdetect.introspect" not in mods
    assert "dataclasses" not in mods


def test_one_process_builds_one_parser():
    assert build_parser() is build_parser()


def test_two_commands_in_one_process_match_two_processes(work, tmp_path):
    commands = [_scoring_argv(work, "eval", "e"), _scoring_argv(work, "inspect", "i")]
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    codes, builds, mods, printed = _probe(commands, tmp_path / "one")
    assert codes == [0, 0] and builds == 1
    assert "dataclasses" not in mods
    apart = []
    for argv in commands:
        codes, builds, _, lines = _probe([argv], tmp_path / "two")
        assert codes == [0] and builds == 1
        apart += lines
    assert printed == apart

    def files(top):
        return {os.path.relpath(os.path.join(folder, name), top):
                open(os.path.join(folder, name), "rb").read()
                for folder, _, names in os.walk(top) for name in names}

    together = files(tmp_path / "one")
    assert together == files(tmp_path / "two")
    assert {"e/report.kv", "i/trace_3.csv", "i/cell_trace_3.csv", "i/ks.csv"} <= set(together)
