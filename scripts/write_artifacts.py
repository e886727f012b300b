#!/usr/bin/env python3
"""Write a fixed set of run artifacts, to compare two source trees byte for byte.

Usage:
  python3 scripts/write_artifacts.py OUTDIR

The script imports helo from the `src/` directory next to it, not from an
installed package, so a copy of it placed in another checkout runs that
checkout's code.  Every file it writes is a pure function of the code: two
trees that behave the same give directories that `diff -r` finds equal.
README ("Checking that a change keeps the artifacts") has the recipe.

OUTDIR receives:
  wesad.jsonl, dmer.jsonl          the generated datasets
  criterion8/                      the determinism criterion's training run,
                                   plus evaluation.csv from `helo evaluate`
  dmer_unscaled_dataset_corr/      rescale_transport=false with
                                   dataset_level_correlation=true
  sinkhorn_max_iter_1/             every transport plan stops unconverged
  loso/fold_01/, loso/summary.csv  one leave-one-subject-out fold
  ablation.csv                     the 1-epoch ablation grid
  resume/                          train, save, load, train again: the
                                   resumed history and final checkpoint
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helo.cli import run  # noqa: E402
from helo.config import TrainConfig  # noqa: E402
from helo.data import WESAD_SCHEMA, load_dataset, split_subject_dependent  # noqa: E402
from helo.model import Model  # noqa: E402
from helo.training import (  # noqa: E402
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)

SMALL = dict(
    embed_dim=8, heads=2, ffn_dim=6, head_hidden1=10, head_hidden2=6,
    tokens_per_modality=2, batch_size=8,
)
SMALL_FLAGS = [arg for k, v in SMALL.items() for arg in ("--set", f"{k}={v}")]
# the training run of the byte-identical-training acceptance criterion
CRITERION_8 = [
    "--epochs", "3", "--seed", "13",
    "--set", "embed_dim=16", "--set", "heads=2", "--set", "ffn_dim=8",
    "--set", "head_hidden1=16", "--set", "head_hidden2=8", "--set", "batch_size=16",
]


def cli(*argv) -> None:
    code = run([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"helo {argv[0]} exited {code}")


def train_save_load_resume(data: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    samples = load_dataset(data, WESAD_SCHEMA)
    train_idx, test_idx = split_subject_dependent(samples, seed=3)
    config = TrainConfig(**SMALL, epochs=2, seed=3)
    model = Model(WESAD_SCHEMA, config)
    _, state = train(model, samples, train_idx, test_idx)
    save_checkpoint(model, state, out / "first.json")
    model, state, _ = load_checkpoint(out / "first.json")
    history, state = train(model, samples, train_idx, test_idx, state)
    write_history_csv(history, out / "history.csv", config.hash(), config.seed)
    save_checkpoint(model, state, out / "checkpoint.json")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    wesad, dmer = out / "wesad.jsonl", out / "dmer.jsonl"
    cli("generate", "--schema", "wesad", "--subjects", "3", "--trials", "8",
        "--seed", "2", "--out", wesad)
    cli("generate", "--schema", "dmer", "--subjects", "3", "--trials", "6",
        "--seed", "3", "--out", dmer)
    c8 = out / "criterion8"
    cli("train", "--data", wesad, "--out-dir", c8, *CRITERION_8)
    cli("evaluate", "--checkpoint", c8 / "checkpoint.json", "--data", wesad,
        "--out", c8 / "evaluation.csv")
    cli("train", "--data", dmer, "--out-dir", out / "dmer_unscaled_dataset_corr",
        "--epochs", "2", *SMALL_FLAGS, "--set", "rescale_transport=false",
        "--set", "dataset_level_correlation=true")
    cli("train", "--data", wesad, "--out-dir", out / "sinkhorn_max_iter_1",
        "--epochs", "2", *SMALL_FLAGS, "--set", "sinkhorn_max_iter=1")
    cli("train", "--data", wesad, "--split", "loso", "--fold", "1",
        "--out-dir", out / "loso", "--epochs", "2", *SMALL_FLAGS)
    cli("ablate", "--data", wesad, "--out", out / "ablation.csv", "--epochs", "1",
        *SMALL_FLAGS)
    train_save_load_resume(wesad, out / "resume")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
