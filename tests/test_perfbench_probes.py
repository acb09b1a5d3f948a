"""The benchmark's per-layer probes still name attributes of the library.

``perfbench/tracer.py`` names the probed callables by string and imports no
library code, so a rename in the library would only show when a traced
benchmark run fails.  This checks every probe the way the tracer installs
it: a module function, or an attribute defined on the named class itself.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves():
    missing = []
    for probe in _load_tracer().PROBES:
        module = importlib.import_module(probe.module)
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{probe.module}:{probe.attr}")
    assert not missing, missing
