"""Puts ``tests/`` on the import path, so the layer benchmarks can time the
scalar reference forms in ``tests/oracles.py`` beside the library's
batched ones."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
