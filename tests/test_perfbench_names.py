"""The per-layer benchmark metrics wrap library functions by name; a
rename would silently leave a layer unmeasured."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_girthlab():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [*tracer.SPANS, *tracer.COUNTS, ("cli", "iter_graphs")]
    assert len(names) > 20
    missing = []
    for module, path in names:
        owner = importlib.import_module(f"girthlab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
