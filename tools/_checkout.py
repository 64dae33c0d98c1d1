"""Make ``import repro`` work for a tool run from a checkout.

``python tools/<tool>.py`` puts ``tools/`` on ``sys.path``, not ``src/``.
Each tool imports this module before ``repro``: when ``repro`` is not
importable already (not installed, no ``PYTHONPATH``), this checkout's
``src/`` is added.  An importable ``repro`` always wins, so
``PYTHONPATH=/other/checkout/src python tools/<tool>.py`` runs the other
checkout's package.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
