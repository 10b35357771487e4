"""The vectorize stage: embeddings.json, vectors.bin (+ .idx) and
vectorize_report.json."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli
from ..artifacts import StageError, derive_seed
from ..presets import MODE_HASH
from .shared import _sevcs_by_program

if TYPE_CHECKING:
    from ..cli import RunConfig


def stage_vectorize(config: RunConfig) -> None:
    hp = config.hyperparams()  # a bad flag fails before the corpus is parsed
    cset = config.characteristic_set()
    # only the symbol streams outlive each program's parse
    symbolic = [
        cli.symbolize(sevc, model, cset)
        for model, sevcs in _sevcs_by_program(config)
        for sevc in sevcs
    ]
    if not symbolic:
        raise StageError("no SeVCs to vectorize; check the 'slice' stage output")
    d = hp.input_dim
    theta = hp.theta
    embed_seed = derive_seed(config.seed, "embeddings")
    if config.embed_mode == MODE_HASH:
        table = cli.hash_table(d, embed_seed)
    else:
        table = cli.train_embeddings(
            [sym.symbols for sym in symbolic], dimension=d, seed=embed_seed
        )
    table.save(config.path("embeddings.json"))
    fits = []
    skipped = []  # vectorize_report.json: SeVCs whose anchor the window cuts
    for sym in symbolic:
        try:
            sym.kept(hp.seq_len)  # what encode will keep: a SeVC it cannot encode is skipped
        except cli.EncodingError as exc:
            skipped.append(
                {"program": sym.program, "syvc_id": sym.syvc_id, "message": str(exc)}
            )
            continue
        fits.append(sym)
    artifacts.write_json(
        config.path("vectorize_report.json"),
        {"seed": config.seed, "vectors": len(fits), "skipped": skipped},
    )
    if not fits:
        raise StageError("no SeVC could be vectorized; see vectorize_report.json")
    # each vector is written as it is encoded: the store is never in memory
    cli.save_vectors(
        config.path("vectors.bin"),
        (cli.encode(sym, table, theta) for sym in fits),
        config.seed,
    )
    print(
        f"vectorized {len(fits)} SeVCs (theta={theta}, d={d}, "
        f"mode={config.embed_mode})"
        + (f", {len(skipped)} skipped" if skipped else "")
    )
