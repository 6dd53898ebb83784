"""Locate the repository checkout and put its ``src`` tree first on sys.path,
so the benchmark always measures the package built from this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Make ``import ngoneq`` load ``ROOT/src/ngoneq``; exit with status 2 if
    the checkout has no package source."""
    if not (SRC / "ngoneq" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ngoneq'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
