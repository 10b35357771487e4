"""The stage bodies of the ``vulnslice`` command, one module per stage.

``cli`` holds the core (arguments, ``RunConfig``, the manifest, dispatch
and ``pipeline``) and reads each stage function as a lazy name:
``cli.stage_parse`` is ``stages.parse:stage_parse``, imported on its
first read. So a stage process compiles the core and its own stage
module, not the other eight. A stage module reads the core's helpers
and every layer name as attributes of ``cli`` (``cli.build_pdgs``),
where ``cli.__getattr__`` imports the layer on first read and where a
caller patches it.

Each module belongs to the stage it is named after; ``shared`` holds
what several stages read: sevc.jsonl program by program (vectorize,
label, explain), the labels.jsonl record (label writes it, train and
evaluate read it) and the detect.jsonl record (detect writes it,
evaluate and explain read it).
"""
