"""Every function the benchmark's span tracer wraps still exists in quadpres.

perfbench/spans.py is loaded from its file and only read: a refactor that
removes or renames a wrapped name fails here, not only in the benchmark's
own self-test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def test_wrapped_names_resolve():
    wrapped = load_wrapped()
    assert wrapped
    for mod_name, path in wrapped:
        obj = importlib.import_module(f"quadpres.{mod_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"quadpres.{mod_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"quadpres.{mod_name}.{path} is not callable"
