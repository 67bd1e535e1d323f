"""Every entry point the benchmark's tracer wraps still exists in ``src/``.

``perfbench/spans.py::install`` wraps each ``(module, attribute)`` of its
``TARGETS`` after a bare ``getattr``, and it and ``perfbench/launch.py``
also patch ``ServingMetrics.observe_batch`` and
``ParallelExperimentRunner.run``.  Deleting or renaming any of them breaks
only traced benchmark runs, so this test resolves each one by name.  It
reads ``TARGETS`` from the benchmark's file without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Patched outside TARGETS: by spans.install and by launch.py.
PATCHED = (
    ("repro.serving.metrics", "ServingMetrics.observe_batch"),
    ("repro.runtime.engine", "ParallelExperimentRunner.run"),
)


def _span_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attribute)
            for module_name, attribute, _name, _describe in module.TARGETS]


TARGETS = _span_targets() + list(PATCHED)


@pytest.mark.parametrize("module_name, attribute", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_span_target_resolves(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
