"""The repository's tools reproduce the data that is checked in."""

import importlib.util
import os

from vulnslice.data import data_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_mini_corpus_generator_writes_the_bundled_corpus(tmp_path, capsys):
    """tools/gen_mini_corpus.py regenerates src/vulnslice/data/mini_corpus/
    byte for byte, so neither can drift from the other; perfbench's
    generated corpora are built from the same templates."""
    path = os.path.join(REPO_ROOT, "tools", "gen_mini_corpus.py")
    spec = importlib.util.spec_from_file_location("gen_mini_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT_DIR = str(tmp_path)
    module.main()
    bundled = data_path("mini_corpus")
    names = sorted(os.listdir(bundled))
    assert len(names) == 41  # 40 programs and manifest.json
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(bundled, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name
