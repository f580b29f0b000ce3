"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions of the `rpattn` modules with thin
wrappers, at the module attribute each caller looks the name up on, and puts
every original back afterwards. A span is (name, parent id, op id, start ns,
end ns, shape meta). Spans stay in memory and are written out once, when the
run ends. Nothing here edits the package.
"""

import gc
import gzip
import math
import time
import tracemalloc
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

KERNELS = ("matmul", "linear", "softmax_lastdim", "layer_norm", "depthwise_conv2d")
STAGE_FUNCS = {
    "project_qkv": "proj",
    "gather_assign": "gather",
    "mass_normalize": "gather",
    "gather_latents": "gather",
    "latent_interact": "interaction",
    "distribute_global": "distribute",
    "local_bypass": "dwc",
}
STAGES = ("proj", "gather", "interaction", "distribute", "dwc", "out")
FORWARD = "attention.rpattention_forward"
BACKWARD = "grad.rpattention_backward"
KMEANS = "baselines.kmeans_gather"


def _shape_meta(values):
    """(shape, itemsize) of every ndarray among values; enough to count MACs and bytes."""
    return tuple((v.shape, v.itemsize) for v in values if isinstance(v, np.ndarray))


def _kernel_meta(args, kwargs, out):
    return _shape_meta(args), _shape_meta(out if isinstance(out, tuple) else (out,))


def _forward_meta(args, kwargs, out):
    x, config = args[0], args[2] if len(args) > 2 else kwargs["config"]
    b, n, c = np.shape(x)
    return (b, n, c, config.num_representatives, config.dwc_kernel, config.routing)


# (module, attribute) pairs wrapped in the traced run, with the span name each
# records and the meta it keeps. A function that other modules import by name
# is wrapped in each of those modules too, under one span name.
TARGETS = (
    [("kernels", k, "kernels." + k, _kernel_meta) for k in KERNELS]
    + [("attention", f, "attention." + f, None) for f in STAGE_FUNCS]
    + [
        ("attention", "rpattention_forward", FORWARD, _forward_meta),
        ("train", "rpattention_forward", FORWARD, _forward_meta),
        ("baselines", "kmeans_gather", KMEANS, None),
        ("grad", "rpattention_backward", BACKWARD, None),
        ("train", "rpattention_backward", BACKWARD, None),
        ("train", "adam_step", "train.adam_step", None),
        ("train", "gen_synthetic", "synthetic.gen_synthetic", None),
        ("train", "train_tiny", "train.train_tiny", None),
    ]
)


class Patches:
    """Set module attributes and restore every original on exit."""

    def __init__(self, package):
        self.package = package
        self.saved = []

    def set(self, module_name, attr, value):
        module = getattr(self.package, module_name)
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


class Recorder:
    """Keeps spans of the traced phase in memory."""

    def __init__(self):
        self.spans = []   # [name, parent, op, t0_ns, t1_ns, meta]
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, meta_fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if meta_fn is not None:
                span[5] = meta_fn(args, kwargs, out)
            return out

        return wrapper

    def install(self, package):
        """Wrap every target; returns the Patches that undo it."""
        patches = Patches(package)
        wrappers = {}
        for module_name, attr, name, meta_fn in TARGETS:
            original = getattr(getattr(package, module_name), attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, meta_fn)
            patches.set(module_name, attr, wrappers[id(original)])
        return patches

    def write(self, path):
        """One tab-separated line per span; meta is the Python repr of shapes."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# id\tname\tparent\top\tt0_ns\tt1_ns\tmeta\n")
            fh.writelines(f"{sid}\t{name}\t{parent}\t{op}\t{t0}\t{t1}\t{meta!r}\n"
                          for sid, (name, parent, op, t0, t1, meta) in enumerate(self.spans))


class MemoryProbe:
    """Peak tracemalloc bytes of each forward and backward call, plus trace stats.

    Used only in an untimed pass. Forward and backward calls never nest, so
    resetting the peak at each call start loses nothing.
    """

    def __init__(self):
        self.forward_peak = 0
        self.backward_peak = 0
        self.trace_bytes = 0
        self.live_slots = 0
        self.slots = 0

    def _peak(self, fn, args, kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base

    def install(self, package):
        patches = Patches(package)
        forward = package.attention.rpattention_forward
        backward = package.grad.rpattention_backward

        @wraps(forward)
        def probed_forward(*args, **kwargs):
            (y, trace), peak = self._peak(forward, args, kwargs)
            self.forward_peak = max(self.forward_peak, peak)
            self.trace_bytes = max(self.trace_bytes, trace_nbytes(trace))
            n, m = trace.a.shape[-2:]
            mass = trace.a.sum(axis=-2)
            self.live_slots += int((mass > 0.01 * n / m).sum())
            self.slots += mass.size
            return y, trace

        @wraps(backward)
        def probed_backward(*args, **kwargs):
            grads, peak = self._peak(backward, args, kwargs)
            self.backward_peak = max(self.backward_peak, peak)
            return grads

        for module_name in ("attention", "train"):
            patches.set(module_name, "rpattention_forward", probed_forward)
        for module_name in ("grad", "train"):
            patches.set(module_name, "rpattention_backward", probed_backward)
        return patches


def trace_nbytes(trace):
    return sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))


# Peak bytes repeat exactly where arrays dominate. At tiny shapes, Python
# objects whose count depends on the data (k-means cluster members) move
# the peak by up to a few hundred bytes, so peaks of two seeds are compared
# with this relative tolerance.
PEAK_TOL = 0.01


def measure_peak(op):
    """Peak traced bytes above the starting level while op() runs.

    A collection first makes the garbage collector's phase independent of
    how many ops ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        op()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def peak_drift(pairs):
    """Peaks {name: (seed, alt seed)} that differ by more than PEAK_TOL."""
    return [{"quantity": name, "seed": a, "alt_seed": b}
            for name, (a, b) in pairs.items() if abs(a - b) > PEAK_TOL * max(a, b)]


def _macs(name, meta):
    """Multiply-accumulates of one kernel call, from its operand shapes."""
    args, _ = meta
    if name == "kernels.matmul":
        (a, _), (b, _) = args[:2]
        lead = np.broadcast_shapes(a[:-2], b[:-2])
        return math.prod(lead) * a[-2] * a[-1] * b[-1]
    if name == "kernels.depthwise_conv2d":
        (x, _), (kern, _) = args[:2]
        return math.prod(x) * kern[0] * kern[1]
    return 0


def _nbytes(meta):
    args, outs = meta
    return sum(math.prod(shape) * size for shape, size in args + outs)


def model_macs(b, n, c, m, k, flops_estimate):
    """Per-stage MACs of `flops_estimate` for one batched forward; its 4NC^2
    projection term is split 3:1 between the q/k/v and output projections."""
    est = flops_estimate(n, m, c, k)
    return {
        "proj": b * est.proj * 3 // 4, "gather": b * est.gather,
        "interaction": b * est.interaction, "distribute": b * est.distribute,
        "dwc": b * est.dwc, "out": b * est.proj // 4,
    }


def summarize(spans, flops_estimate):
    """Per-op sums of every counted quantity: {op id: Counter}.

    Keys end in `.ns`, `.self_ns`, `.calls`, `.macs` or `.bytes`. Parents
    always precede their children in `spans`, so one pass in order resolves
    each span's forward stage, whether it runs inside the backward, and
    whether it runs inside another kernel call.
    """
    stage_of = [None] * len(spans)
    in_backward = [False] * len(spans)
    in_kernel = [False] * len(spans)
    child_ns = [0] * len(spans)
    per_op = defaultdict(Counter)
    for sid, (name, parent, op, t0, t1, meta) in enumerate(spans):
        dur = t1 - t0
        tot = per_op[op]
        is_kernel = name.startswith("kernels.")
        outer_kernel = is_kernel
        if parent >= 0:
            child_ns[parent] += dur
            if spans[parent][0] == FORWARD:
                stage = STAGE_FUNCS.get(name.rpartition(".")[2])
                if name == KMEANS:
                    stage = "gather"
                elif name == "kernels.linear":
                    stage = "out"
                if stage is not None:
                    tot["stage." + stage + ".ns"] += dur
            else:
                stage = stage_of[parent]
            stage_of[sid] = stage
            in_backward[sid] = in_backward[parent]
            outer_kernel = is_kernel and not in_kernel[parent]
            in_kernel[sid] = is_kernel or in_kernel[parent]
        else:
            in_kernel[sid] = is_kernel
        in_backward[sid] = in_backward[sid] or name == BACKWARD

        tot[name + ".ns"] += dur
        tot[name + ".calls"] += 1
        if is_kernel:
            macs = _macs(name, meta)
            tot[name + ".macs"] += macs
            if outer_kernel:
                tot["kernels.bytes"] += _nbytes(meta)
            if stage_of[sid] is not None:
                tot["stage." + stage_of[sid] + ".macs"] += macs
            if in_backward[sid]:
                tot[BACKWARD + ".macs"] += macs
        elif name == FORWARD:
            b, n, c, m, k, routing = meta
            for stage, macs in model_macs(b, n, c, m, k, flops_estimate).items():
                tot["stage." + stage + ".model_macs"] += macs
            tot["forward.bnc2.macs"] += b * n * c * c
            tot["forward." + routing + ".calls"] += 1
    for sid, span in enumerate(spans):
        per_op[span[2]][span[0] + ".self_ns"] += span[4] - span[3] - child_ns[sid]
    return per_op


def is_exact(key):
    """Counters that depend only on shapes, so must repeat bit for bit."""
    return key.endswith((".calls", ".macs", ".bytes"))


def layer_metrics(totals, n_ops):
    """Per-layer metrics, per op, from the summed totals of n_ops traced ops."""
    def per_op(key):
        return totals.get(key, 0) / n_ops

    def ms(key):
        return per_op(key) / 1e6

    def rate(macs_key, ns_key):
        ns = totals.get(ns_key, 0)
        return totals.get(macs_key, 0) / ns if ns else 0.0   # MAC/ns = GMAC/s

    out = {}
    for k in KERNELS:
        out["kernels." + k + ".self_ms"] = (ms("kernels." + k + ".self_ns"), "ms")
        if k != "linear":
            out["kernels." + k + ".calls"] = (per_op("kernels." + k + ".calls"), "count")
    out["kernels.matmul.gmac"] = (per_op("kernels.matmul.macs") / 1e9, "GMAC")
    out["kernels.matmul.gmac_per_s"] = (rate("kernels.matmul.macs", "kernels.matmul.ns"), "GMAC/s")
    out["kernels.bytes_mb"] = (per_op("kernels.bytes") / 1e6, "MB")

    stage_ns = 0
    for stage in STAGES:
        key = "stage." + stage
        stage_ns += totals.get(key + ".ns", 0)
        out["attention." + stage + ".ms"] = (ms(key + ".ns"), "ms")
        out["attention." + stage + ".gmac"] = (per_op(key + ".macs") / 1e9, "GMAC")
        out["attention." + stage + ".model_gmac"] = (per_op(key + ".model_macs") / 1e9, "GMAC")
        out["attention." + stage + ".gmac_per_s"] = (rate(key + ".macs", key + ".ns"), "GMAC/s")
    forward_ns = totals.get(FORWARD + ".ns", 0)
    out["attention.forward.ms"] = (ms(FORWARD + ".ns"), "ms")
    out["attention.forward.glue_ms"] = ((forward_ns - stage_ns) / n_ops / 1e6, "ms")
    out["attention.stage_coverage"] = (stage_ns / forward_ns if forward_ns else 0.0, "ratio")

    out["grad.backward.ms"] = (ms(BACKWARD + ".ns"), "ms")
    out["grad.backward.self_ms"] = (ms(BACKWARD + ".self_ns"), "ms")
    out["grad.backward.gmac"] = (per_op(BACKWARD + ".macs") / 1e9, "GMAC")
    out["baselines.kmeans_gather.ms"] = (ms(KMEANS + ".ns"), "ms")
    out["baselines.kmeans_gather.calls"] = (per_op(KMEANS + ".calls"), "count")
    out["train.adam_step.ms"] = (ms("train.adam_step.ns"), "ms")
    out["train.train_tiny.self_ms"] = (ms("train.train_tiny.self_ns"), "ms")
    out["synthetic.gen_synthetic.ms"] = (ms("synthetic.gen_synthetic.ns"), "ms")
    return out


def cost_model_check(op_totals):
    """Counted against modelled MACs per stage for one op.

    On learned routing the counted proj, gather, distribute and out MACs
    equal the model exactly, and counted dwc MACs exceed it by B*N*C^2: the
    bypass re-projects x through w_v. Interaction counts the latent q/k/v
    projections the model leaves out. Gaps are reported, never hidden.
    """
    rows = {}
    for stage in STAGES:
        counted = op_totals.get("stage." + stage + ".macs", 0)
        model = op_totals.get("stage." + stage + ".model_macs", 0)
        rows[stage] = {"counted_macs": counted, "model_macs": model, "gap_macs": counted - model}
    learned_only = op_totals.get("forward.kmeans.calls", 0) == 0
    bnc2 = op_totals.get("forward.bnc2.macs", 0)
    checks = {
        "learned_routing_only": learned_only,
        "dwc_gap_equals_BNC2": rows["dwc"]["gap_macs"] == bnc2,
        "BNC2_macs": bnc2,
    }
    if learned_only:
        for stage in ("proj", "gather", "distribute", "out"):
            checks[stage + "_equals_model"] = rows[stage]["gap_macs"] == 0
    return {"stages": rows, "checks": checks}
