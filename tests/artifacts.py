#!/usr/bin/env python3
"""Byte-identity check: run a fixed list of botdetect commands against one
repository tree and print a sha256 manifest of everything they write.

    python tests/artifacts.py [--tree ROOT] [--threads N]
    python tests/artifacts.py [--tree ROOT] --against OTHER_ROOT

The first form runs every command of `COMMANDS` in its own subprocess, in a
fresh temporary directory, with ``PYTHONPATH=ROOT/src`` and
``OPENBLAS_NUM_THREADS=N`` (default: this file's tree, one thread). It
prints one ``sha256 path`` line per file the commands leave in that
directory, inputs they wrote included, and per command one ``exit <code>
<name>`` line and a ``sha256 <name>/stdout`` and ``<name>/stderr`` line.
Run-directory names (``run-<date>-<time>-<hash>``) are masked in paths,
file contents and output, so two runs of one tree print the same manifest.

The second form makes the manifest of both trees at one and at two BLAS
threads, names every file, stream and exit code that differs, and ends with
one summary line; it exits 1 if anything differs.

The command list covers the three benchmark workloads' set-up and job
(`perfbench/workloads.py`, size ``full``, seed 3), the README systems table,
and on one small synthetic corpus `synth`, `ingest --kv`, `tokenize`,
`resample` with each strategy, the five baselines at account level plain and
with SMOTENN, and `train`, `eval` and `inspect --cell-state` of both nets,
the contextual one also at batch size 20 with head truncation to 8 tokens;
and `ingest --kv` on a small fixed corpus of empty, `nan`, short and
skipped rows.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = re.compile(rb"run-\d{8}-\d{6}-[0-9a-f]{8}(?:-\d+)?")

# One benchmark job after its set-up, in the working directory: argv is the
# tree root, the workload and the seed.
WORKLOAD = """
import os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
from workloads import SIZES, WORKLOADS
from botdetect.cli import main
inputs = WORKLOADS[sys.argv[2]].setup(".", int(sys.argv[3]), SIZES["full"])
sys.exit(max(main(argv) for argv in inputs.commands))
"""

CORPUS = ["--manifest", "corpus/manifest.txt"]
EMBEDDING = ["--embedding", "corpus/glove_25d.txt"]
NETS = {  # name -> train flags
    "contextual": ["--model", "contextual"],
    "lstm": ["--model", "lstm"],
    "contextual_b20_head": ["--model", "contextual", "--batch-size", "20",
                            "--truncation", "head", "--max-len", "8"],
}
BASELINES = ("logreg", "sgd", "forest", "adaboost", "mlp")


def _commands() -> list[tuple[str, str, list[str]]]:
    """(name, working directory under the run's directory, argv after the
    interpreter); `{tree}` in argv stands for the tree's root."""
    commands = [(name, name, ["-c", WORKLOAD, "{tree}", name, "3"])
                for name in ("tweet-train", "account-table", "tweet-score")]
    for dim in ("25", "50"):
        commands.append((f"table_synth_{dim}", "table",
                         ["synth", "--out", "corpus", "--seed", "0", "--separation", "0.25",
                          "--embedding-seed", "1", "--embedding-dim", dim]))
    commands += [
        ("table_bench", "table", ["bench", "--config", "experiments/systems.bench",
                                  "--out", "systems"]),
        ("synth", "cli", ["synth", "--out", "corpus", "--seed", "7", "--accounts", "30",
                          "--tweets-per-account", "6", "--separation", "0.25",
                          "--embedding-dim", "25"]),
        ("ingest", "cli", ["ingest", *CORPUS, "--kv", "ingest.kv"]),
        ("ingest_messy", "cli", ["ingest", "--manifest", "messy/manifest.txt",
                                 "--kv", "messy.kv"]),
        ("tokenize", "cli", ["tokenize", "--input", "corpus/bot/tweets.csv",
                             "--output", "tokens.txt", "--repeat-tag"]),
    ]
    for strategy in ("smote", "smotenn", "smotomek"):
        commands.append((f"resample_{strategy}", "cli",
                         ["resample", "--input", "matrix.csv", "--output", f"{strategy}.csv",
                          "--strategy", strategy, "--seed", "2",
                          "--diagnostics", f"{strategy}.kv"]))
    for model in BASELINES:
        for resample in ("none", "smotenn"):
            commands.append((f"train_{model}_{resample}", "cli",
                             ["train", "--task", "account", "--model", model, *CORPUS,
                              "--resample", resample, "--seed", "5",
                              "--out", f"runs/{model}_{resample}"]))
    for name, flags in NETS.items():
        checkpoint = ["--checkpoint", f"runs/{name}/latest/model.txt", *CORPUS, *EMBEDDING]
        commands += [
            (f"train_{name}", "cli", ["train", "--task", "tweet", *flags, *CORPUS, *EMBEDDING,
                                      "--embedding-dim", "25", "--epochs", "3", "--seed", "1",
                                      "--out", f"runs/{name}"]),
            (f"eval_{name}", "cli", ["eval", *checkpoint, "--out", f"eval/{name}"]),
            (f"inspect_{name}", "cli", ["inspect", *checkpoint, "--out", f"inspect/{name}",
                                        "--tweet-index", "7", "--cell-state"]),
        ]
    return commands


COMMANDS = _commands()


def _matrix_csv() -> str:
    """A fixed 3-feature matrix, 30 humans and 10 bots, for `resample`."""
    rng = random.Random(0)
    lines = ["f0,f1,f2,label"]
    for i in range(40):
        shift = 1.5 if i >= 30 else 0.0
        cells = [repr(round(rng.gauss(shift, 1.0), 6)) for _ in range(3)]
        lines.append(",".join(cells + ["bot" if shift else "human"]))
    return "\n".join(lines) + "\n"


def _messy_corpus() -> dict[str, str]:
    """A fixed corpus of awkward rows for `ingest`, by path under the command
    directory: empty and `nan` counts, an empty flag, rows skipped after an
    empty cell, short rows, and a `tweets.csv` without `num_urls` (counted
    from the text) or `reply_count` (loaded as 0, with a note)."""
    users = ("id,statuses_count,followers_count,friends_count,favourites_count,listed_count,"
             "default_profile,geo_enabled,profile_use_background_image,verified,protected\n")
    tweets = "user_id,text,retweet_count,favorite_count,num_hashtags,num_mentions\n"
    return {
        "messy/manifest.txt": "group.h.path = h\ngroup.h.label = human\ngroup.h.accounts = 3\n"
                              "group.b.path = b\ngroup.b.label = bot\ngroup.b.tweets = 4\n",
        "messy/h/users.csv": users + "a1,5,,3,nan,0,1,,0,1,0\n"  # empty and nan counts, empty flag
                             "a2,4,,2,1,0,1,maybe,0,1,0\n"  # skipped after an empty count
                             "a3,7,2,1\n"  # short: empty counts and flags
                             ",1,1,1,1,1,1,1,1,1,1\n",  # no id
        "messy/b/users.csv": users + "b1,1, NULL ,1,1,1,1,1,1,1,1\n",
        "messy/b/tweets.csv": tweets + 'u1,"see #a https://t.co/x @bob",1,,0,1\n'
                              "u2,skipped after an empty count,,x,0,0\n"
                              "u3,short,2\n"
                              "u4,nan counts,nan,none,0,0\n",
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(RUN_DIR.sub(b"run-*", data)).hexdigest()


def run(commands, work: str, env: dict, tree: str = ROOT) -> list[str]:
    """Run each (name, working directory under `work`, argv) command in its
    own subprocess; per command one ``exit <code> <name>`` line and a digest
    line for its stdout and its stderr."""
    lines = []
    for name, cwd, argv in commands:
        if argv[0] != "-c":
            argv = ["-m", "botdetect.cli", *argv]
        proc = subprocess.run([sys.executable, *(a.replace("{tree}", tree) for a in argv)],
                              cwd=os.path.join(work, cwd), env=env, capture_output=True,
                              timeout=600)
        lines.append(f"exit {proc.returncode} {name}")
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            lines.append(f"{_digest(data.replace(work.encode(), b'<work>'))} {name}/{stream}")
    return lines


def file_digests(work: str) -> list[str]:
    """One ``sha256 path`` line per file and symlink under `work`, in path
    order; a symlink's digest is that of its target's name."""
    lines = []
    for folder, dirs, names in os.walk(work):
        dirs.sort()
        links = [d for d in dirs if os.path.islink(os.path.join(folder, d))]
        for file in sorted(names + links):
            path = os.path.join(folder, file)
            if os.path.islink(path):
                data = os.readlink(path).encode()
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            shown = RUN_DIR.sub(b"run-*", os.path.relpath(path, work).encode()).decode()
            lines.append(f"{_digest(data)} {shown}")
    return lines


def manifest(tree: str, threads: int) -> list[str]:
    """The manifest lines of every command in `COMMANDS` run against `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS=str(threads))
    with tempfile.TemporaryDirectory(prefix="artifacts-") as work:
        for cwd in {cwd for _, cwd, _ in COMMANDS}:
            os.makedirs(os.path.join(work, cwd))
        shutil.copytree(os.path.join(tree, "experiments"),
                        os.path.join(work, "table", "experiments"))
        with open(os.path.join(work, "cli", "matrix.csv"), "w", encoding="utf-8") as fh:
            fh.write(_matrix_csv())
        for rel, text in _messy_corpus().items():
            path = os.path.join(work, "cli", rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return run(COMMANDS, work, env, tree) + file_digests(work)


def _keyed(lines: list[str]) -> dict[str, str]:
    """Manifest lines by what they describe: a file or stream, or a
    command's exit code."""
    keyed = {}
    for line in lines:
        value, name = line.rsplit(" ", 1)
        keyed[f"{name} exit code" if value.startswith("exit ") else name] = value
    return keyed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT, help="repository root to run (default: this one)")
    parser.add_argument("--threads", type=int, default=1, help="OPENBLAS_NUM_THREADS")
    parser.add_argument("--against", default="", help="another repository root to compare with")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if not args.against:
        print("\n".join(manifest(tree, args.threads)))
        return 0
    other = os.path.abspath(args.against)
    differing, sizes = 0, set()
    for threads in (1, 2):
        ours, theirs = _keyed(manifest(tree, threads)), _keyed(manifest(other, threads))
        sizes.add((len(COMMANDS), len(ours) - 3 * len(COMMANDS)))
        for key in sorted(ours.keys() | theirs.keys()):
            if ours.get(key) != theirs.get(key):
                differing += 1
                print(f"OPENBLAS_NUM_THREADS={threads}: {key} differs")
    files = "/".join(str(count) for _, count in sorted(sizes))
    verdict = f"{differing} differ" if differing else "all identical"
    print(f"artifacts: {len(COMMANDS)} commands and {files} files a side, {tree} against "
          f"{other}, at OPENBLAS_NUM_THREADS=1 and 2: {verdict}")
    return 1 if differing else 0

if __name__ == "__main__":
    sys.exit(main())
