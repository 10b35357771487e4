"""vulnslice: slice-based vulnerability candidate detection for a C subset.

Pipeline stages, each its own module:

- ``frontend``    lex + parse into tokens, statements, ASTs
- ``lexicon``     token kinds and identifier roles the frontend tags
- ``candidates``  syntax-based vulnerability candidates (SyVCs)
- ``graphs``      CFGs, dependence edges, PDGs, call graph
- ``slicing``     interprocedural slices and SeVC assembly
- ``symbols``     SeVC symbol streams, their window, a verdict's critical tokens
- ``vectorize``   fixed-length encoding and the vector store
- ``embeddings``  skip-gram / hashed token embeddings
- ``labeling``    ground-truth labels from diffs and annotations
- ``bgru``        bidirectional GRU classifier with explanations
- ``evaluation``  program-level splits and detection metrics
- ``presets``     SyVC kinds, BGRU hyperparameter presets, embedding modes
- ``artifacts``   the files stages hand to each other, written atomically
- ``cli``         the ``vulnslice`` command
"""

__version__ = "0.1.0"
