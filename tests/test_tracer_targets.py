"""The traced benchmark's patches reach the package and are undone.

perfbench/tracer.py replaces (module, attribute) pairs of rpattn at run time;
a rename in the package, or a caller that binds a name before the patch is
installed, would otherwise surface only when `--trace 1` runs.
"""

from collections import Counter
from pathlib import Path

import pytest

import rpattn
from rpattn import AttnConfig, SyntheticTask, TrainConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Executed from source, so nothing (not even bytecode) is written under perfbench/.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), namespace)
    return namespace


TRACER = _load_tracer()
TARGETS = [target[:2] for target in TRACER["TARGETS"]]


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_is_callable(module, attr):
    assert callable(getattr(getattr(rpattn, module), attr, None)), f"rpattn.{module}.{attr}"


def test_recorder_spans_kmeans_train_tiny_and_restores():
    originals = {(m, a): getattr(getattr(rpattn, m), a) for m, a in TARGETS}
    task = SyntheticTask(grid_h=2, grid_w=2, channels=4, num_clusters=2, num_samples=10)
    attn = AttnConfig(channels=4, heads=2, num_representatives=2, grid_h=2, grid_w=2)
    recorder = TRACER["Recorder"]()
    with recorder.install(rpattn):
        rpattn.train.train_tiny(task, attn, TrainConfig(steps=2, batch_size=4, lr=0.01,
                                                        variant="kmeans"))
    calls = Counter(span[0] for span in recorder.spans)
    # Two training steps, then one forward on the held-out split.
    assert {name: calls[name] for name in (
        "attention.rpattention_forward", "grad.rpattention_backward",
        "baselines.kmeans_gather", "train.adam_step")} == {
        "attention.rpattention_forward": 3, "grad.rpattention_backward": 2,
        "baselines.kmeans_gather": 3, "train.adam_step": 2}
    for (module, attr), original in originals.items():
        assert getattr(getattr(rpattn, module), attr) is original, f"rpattn.{module}.{attr}"
