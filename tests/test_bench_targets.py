"""The benchmark's traced pass patches library names that must exist.

``bench.tracing.Tracer.installed`` looks each target up as
``owner.__dict__[attr]``, so a renamed or deleted function or method makes
``bench/run.py --trace 1`` raise ``KeyError``.  The benchmark's own tests
do not run a traced pass over the library, so the names are checked here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracing import layer_targets  # noqa: E402


def test_every_layer_target_is_defined_on_its_owner():
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr in layer_targets()
               if attr not in owner.__dict__]
    assert missing == []
