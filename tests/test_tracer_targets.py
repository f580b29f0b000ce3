"""Every function the traced benchmark wraps exists in the package under its name.

perfbench/tracer.py replaces (module, attribute) pairs of rpattn at run time;
a rename in the package would otherwise surface only when `--trace 1` runs.
"""

from pathlib import Path

import pytest

import rpattn

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    # Executed from source, so nothing (not even bytecode) is written under perfbench/.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), namespace)
    return [target[:2] for target in namespace["TARGETS"]]


TARGETS = _tracer_targets()


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_is_callable(module, attr):
    assert callable(getattr(getattr(rpattn, module), attr, None)), f"rpattn.{module}.{attr}"
