"""The train stage: checkpoint.bin and train_report.json."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .. import artifacts, cli
from ..artifacts import StageError, derive_seed
from .shared import _labels

if TYPE_CHECKING:
    from ..cli import RunConfig


def stage_train(config: RunConfig) -> None:
    hp = replace(config.hyperparams(), seed=derive_seed(config.seed, "train"))
    artifacts.require(config.path("vectors.bin"), "vectorize")
    samples, _ = cli.load_vectors(config.path("vectors.bin"))
    for flag, held, wanted in (("--dim", samples[0].dimension, hp.input_dim),
                               ("--theta", samples[0].theta, hp.theta)):
        if held != wanted:
            raise StageError(
                f"vectors.bin holds vectors at {flag[2:]} {held}, not at {flag} "
                f"{wanted}; re-run the 'vectorize' stage with it"
            )
    labels = {r.syvc_id: r for r in _labels(config)}
    unlabeled = [s.syvc_id for s in samples if s.syvc_id not in labels]
    if unlabeled:
        raise StageError(f"no label for SyVC {unlabeled[0]}; re-run the 'label' stage")
    if config.strict_review:
        samples = [s for s in samples if not labels[s.syvc_id].needs_review]
    split_seed = derive_seed(config.seed, "split")
    train_side, test_side = cli.split_by_program(samples, ratio=0.8, seed=split_seed)
    dataset = [(s, labels[s.syvc_id].label) for s in train_side]
    params, report = cli.train_model(dataset, hp)
    cli.save_checkpoint(config.path("checkpoint.bin"), params, config.seed)
    artifacts.write_json(
        config.path("train_report.json"),
        {
            "seed": config.seed,
            "train_samples": len(train_side),
            "test_samples": len(test_side),
            "train_programs": sorted({s.program for s in train_side}),
            "test_programs": sorted({s.program for s in test_side}),
            "epoch_losses": report.epoch_losses,
            "epochs": report.epochs,
        },
    )
    print(
        f"trained on {len(train_side)} samples "
        f"({len(report.epoch_losses)} epochs, final loss "
        f"{report.epoch_losses[-1]:.4f}); held out {len(test_side)}"
    )
