"""The slice stage: sevc.jsonl and slice_report.json."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli

if TYPE_CHECKING:
    from ..candidates import SyVC
    from ..cli import RunConfig


def stage_slice(config: RunConfig) -> None:
    _, syvcs = artifacts.read_jsonl(
        config.path("syvc.jsonl"), "syvc", "extract", cli.SyVC.from_record
    )
    program_named = cli._program_named(cli.load_manifest(config.manifest), "syvc.jsonl", "extract")
    by_program: dict[str, list[SyVC]] = {}
    for syvc in syvcs:
        by_program.setdefault(syvc.program, []).append(syvc)
    sevcs = []
    diagnostics = set()  # slice_report.json: (program, message) of unresolved calls
    skipped = []  # slice_report.json: what could not be sliced, and why
    graph_diagnostics = []  # slice_report.json: e.g. dead code the CFG pruned

    def skip(program: str, syvc_id: int | None, exc: Exception) -> None:
        skipped.append({"program": program, "syvc_id": syvc_id, "message": str(exc)})

    for program_name in sorted(by_program):  # one parsed program at a time
        model = cli._parse_program(program_named(program_name))
        try:
            pdgs = cli.build_pdgs(model, config.deps)
        except cli.GraphError as exc:
            # without one function's PDG its callers' slices would stop
            # short, so the whole program is skipped
            skip(program_name, None, exc)
            continue
        for fn in model.functions:
            graph_diagnostics.extend(
                {"program": program_name, "function": fn.name, "message": message}
                for message in pdgs[fn.index].diagnostics
            )
        call_graph = cli.build_call_graph(model)
        for syvc in by_program[program_name]:
            try:
                slice_ = cli.interprocedural_slices(model, call_graph, pdgs, syvc)
                sevc = cli.assemble_sevc(model, slice_, syvc, call_graph)
            except cli.SliceConsistencyError as exc:
                skip(program_name, syvc.id, exc)
                continue
            diagnostics.update((program_name, message) for message in slice_.diagnostics)
            sevcs.append(sevc)
    artifacts.write_jsonl(config.path("sevc.jsonl"), "sevc", config.seed, sevcs)
    artifacts.write_json(
        config.path("slice_report.json"),
        {
            "seed": config.seed,
            "programs": len(by_program),
            "sevcs": len(sevcs),
            "skipped": skipped,
            "graph_diagnostics": graph_diagnostics,
            "slice_diagnostics": [
                {"program": program, "message": message}
                for program, message in sorted(diagnostics)
            ],
        },
    )
    print(
        f"sliced {len(sevcs)} SeVCs "
        f"({len(diagnostics)} distinct slice diagnostics, "
        f"{len(skipped)} skipped)"
    )
