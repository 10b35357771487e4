"""The extract stage: syvc.jsonl."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli

if TYPE_CHECKING:
    from ..cli import RunConfig


def stage_extract(config: RunConfig) -> None:
    artifacts.require(config.path("parse_report.json"), "parse")
    programs = cli.load_manifest(config.manifest)
    cset = config.characteristic_set()
    records = []
    for model in cli._parse_programs(programs):
        # ids are per-program at extraction; renumber corpus-wide so
        # downstream artifacts can join on them
        first = len(records)
        records.extend(
            {**vars(syvc), "id": first + i}
            for i, syvc in enumerate(cli.extract_syvcs(model, cset))
        )
    artifacts.write_jsonl(
        config.path("syvc.jsonl"), "syvc", config.seed, records
    )
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    summary = ", ".join(f"{k}={by_kind.get(k, 0)}" for k in config.kinds)
    print(f"extracted {len(records)} SyVCs ({summary})")
