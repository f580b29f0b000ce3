"""The traced benchmark's patches reach the package and are undone.

perfbench/tracer.py replaces (module, attribute) pairs of rpattn at run time;
a rename in the package, or a caller that binds a name before the patch is
installed, would otherwise surface only when `--trace 1` runs.
"""

from collections import Counter
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("routing", ["learned", "kmeans"])
def test_memory_probe_reads_the_trace(monkeypatch, routing):
    # The traced run's MemoryProbe sums the trace's arrays and reads trace.a,
    # its shape and slot mass; the trace keeps no [B, h, N, M] array, so
    # trace.a is recomputed on read. Two token tiles of 4, with the Recorder
    # wrapped inside the probe.
    monkeypatch.setattr(rpattn.kernels, "TOKEN_TILE", 4)
    cfg = AttnConfig(channels=4, heads=2, num_representatives=3, grid_h=2, grid_w=3,
                     routing=routing)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, cfg.num_tokens, cfg.channels))
    params = rpattn.init_params(cfg, 1)
    probe, recorder = TRACER["MemoryProbe"](), TRACER["Recorder"]()
    traces = []

    def op():
        _, trace = rpattn.attention.rpattention_forward(x, params, cfg)
        rpattn.grad.rpattention_backward(trace, rng.standard_normal(x.shape))
        traces.append(trace)

    with recorder.install(rpattn), probe.install(rpattn):
        recorder.op = 0
        TRACER["measure_peak"](op)
    (trace,) = traces
    nm = (cfg.num_tokens, cfg.num_representatives)
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    assert all(v.shape[-2:] != nm for v in arrays)
    assert probe.trace_bytes == TRACER["trace_nbytes"](trace) == sum(v.nbytes for v in arrays)
    assert probe.slots == 2 * cfg.heads * cfg.num_representatives
    assert 0 < probe.live_slots <= probe.slots
    assert probe.forward_peak > 0 and probe.backward_peak > 0
    if routing == "learned":  # the trace keeps no keys: x @ w_k, per head
        (k,) = rpattn.project_qkv(trace.x, (trace.params.w_k,), cfg.heads)
        expect = rpattn.gather_assign(k, trace.params.w_g)
    else:
        expect = (trace.slots[..., None] == np.arange(nm[1])).astype(x.dtype)
    assert trace.a.shape == expect.shape and trace.a.tobytes() == expect.tobytes()
    calls = Counter(span[0] for span in recorder.spans)
    assert calls["attention.rpattention_forward"] == calls["grad.rpattention_backward"] == 1
    assert calls["baselines.kmeans_gather"] == (routing == "kmeans")
    checks = TRACER["cost_model_check"](
        TRACER["summarize"](recorder.spans, rpattn.analysis.flops_estimate)[0])["checks"]
    if routing == "learned":
        assert checks["gather_equals_model"] and checks["distribute_equals_model"]
