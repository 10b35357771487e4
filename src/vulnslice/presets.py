"""Model settings every stage names on its command line.

The BGRU hyperparameters with their published presets, and the
embedding modes. They live apart from ``bgru`` and ``embeddings`` so
that the command line, which needs them for every stage, can be built
without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

MODE_SKIPGRAM = "skipgram"
MODE_HASH = "hash"


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class Hyperparams:
    input_dim: int = 16
    seq_len: int = 50
    hidden_dim: int = 32
    layers: int = 1
    dense_dim: int = 16
    dropout: float = 0.2
    batch_size: int = 16
    epochs: int = 80
    learning_rate: float = 0.01
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        for name in (
            "input_dim",
            "seq_len",
            "hidden_dim",
            "layers",
            "dense_dim",
            "batch_size",
            "epochs",
        ):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must be in [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise ModelError("threshold must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ModelError("learning rate must be positive")

    @property
    def theta(self) -> int:
        return self.seq_len * self.input_dim


# Published presets: "paper" mirrors the reported training setup,
# "desk" fits CPU-only runs and the bundled mini corpus.
PRESETS: dict[str, Hyperparams] = {
    "paper": Hyperparams(
        input_dim=30,
        seq_len=500,
        hidden_dim=500,
        layers=2,
        dense_dim=256,
        dropout=0.2,
        batch_size=16,
        epochs=20,
        learning_rate=0.002,
    ),
    "desk": Hyperparams(),
}
