"""The parse stage: ast.jsonl and parse_report.json."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import artifacts, cli

if TYPE_CHECKING:
    from ..cli import RunConfig


def stage_parse(config: RunConfig) -> None:
    programs = cli.load_manifest(config.manifest)
    ast_lines = []
    diagnostics = []
    functions = statements = 0
    for model in cli._parse_programs(programs):  # each model is dropped once dumped
        ast_lines.extend(cli.dump_ast(model))
        for diag in model.diagnostics:
            diagnostics.append(
                {"program": model.name, "file": diag.file, "line": diag.line,
                 "message": diag.message}
            )
        functions += len(model.functions)
        statements += sum(len(f.all_statements()) for f in model.functions)
    artifacts.write_jsonl_lines(
        config.path("ast.jsonl"), "ast-dump", config.seed, ast_lines
    )
    artifacts.write_json(
        config.path("parse_report.json"),
        {
            "seed": config.seed,
            "programs": len(programs),
            "functions": functions,
            "statements": statements,
            "diagnostics": diagnostics,
        },
    )
    print(
        f"parsed {len(programs)} programs: {functions} functions, "
        f"{statements} statements, {len(diagnostics)} diagnostics"
    )
