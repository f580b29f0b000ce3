"""The two benchmark workloads.

Each workload builds its inputs from the benchmark seed (`make`), checks them
once at set-up (`setup_check`), runs one op (`op`) and checks every op's
result (`check`). Ops call the package through module attributes
(`rp.attention.rpattention_forward`, ...) so the traced run's wrappers see
them. A check returns an empty string when it passes, else the reason.

Tolerances are fixed here and never tuned per run:
  * fwd_f32_n16k set-up: max |y32 - y64| / max |y64| <= 1e-4 against the
    float64 forward of the upcast params and input (measured: <= 6e-7 over
    seeds 0-7).
  * ablate_kmeans_tiny: final loss < initial loss, bit-identical every op.

The k-means run takes the task and train seeds of configs/ablate.json and
uses the benchmark seed as k-means seed, because with fresh task and train
seeds its check fails on some seeds for reasons that are not performance
(see README.md).
"""

from dataclasses import asdict, replace

import numpy as np

FWD_TOL = 1e-4


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _output_problem(y, shape, dtype):
    if not isinstance(y, np.ndarray) or y.shape != shape or y.dtype != dtype:
        return f"output {getattr(y, 'shape', None)} {getattr(y, 'dtype', None)}, want {shape} {dtype}"
    if not _finite(y):
        return "non-finite output"
    return ""


class FwdF32N16k:
    """One float32 forward at the paper's linear-cost scale; the trace is dropped."""

    name = "fwd_f32_n16k"
    batch = 1

    def config(self, rp):
        return rp.attention.AttnConfig(
            channels=64, heads=2, num_representatives=49, grid_h=128, grid_w=128,
            dwc_kernel=3, routing="learned", enable_interact=True, enable_dwc=True,
            dtype="float32")

    def make(self, rp, seed):
        cfg = self.config(rp)
        params = rp.attention.init_params(cfg, seed)
        x = np.random.default_rng([seed, 1]).standard_normal(
            (self.batch, cfg.num_tokens, cfg.channels)).astype(np.float32)
        return {"cfg": cfg, "params": params, "x": x}

    def setup_check(self, rp, s):
        cfg64 = replace(s["cfg"], dtype="float64")
        p64 = rp.attention.RPAttnParams(
            **{k: v.astype(np.float64) for k, v in s["params"].field_dict().items()})
        y64, _ = rp.attention.rpattention_forward(s["x"].astype(np.float64), p64, cfg64)
        y32 = self.op(rp, s, 0)
        err = float(np.abs(y32 - y64).max() / np.abs(y64).max())
        s["setup_checks"] = {"f32_vs_f64_rel_err": err, "tol": FWD_TOL}
        return "" if err <= FWD_TOL else f"float32 vs float64 relative error {err:.3g} > {FWD_TOL}"

    def op(self, rp, s, i):
        y, _ = rp.attention.rpattention_forward(s["x"], s["params"], s["cfg"])
        return y

    def check(self, s, y, i):
        return _output_problem(y, s["x"].shape, np.float32)

    def describe(self, s):
        return {"batch": self.batch, "attn": asdict(s["cfg"])}


class AblateKmeansTiny:
    """One short k-means-routing training run (configs/ablate.json, 20 steps)."""

    name = "ablate_kmeans_tiny"
    steps = 20

    def make(self, rp, seed):
        # Settings of configs/ablate.json, copied so that editing the config
        # does not change the benchmark.
        task = rp.synthetic.SyntheticTask(
            grid_h=4, grid_w=4, channels=8, num_clusters=3, mean_scale=1.0, sigma=0.05,
            seed=7, num_samples=120)
        attn = rp.attention.AttnConfig(
            channels=8, heads=2, num_representatives=3, grid_h=4, grid_w=4, dtype="float64",
            kmeans_seed=seed)
        train = rp.train.TrainConfig(
            steps=self.steps, batch_size=16, lr=0.01, seed=3, variant="kmeans")
        return {"task": task, "attn": attn, "train": train, "final_loss": None}

    def setup_check(self, rp, s):
        hist = self.op(rp, s, 0)
        s["final_loss"] = hist.final_loss
        s["setup_checks"] = {"initial_loss": hist.initial_loss, "final_loss": hist.final_loss}
        return ""

    def op(self, rp, s, i):
        return rp.train.train_tiny(s["task"], s["attn"], s["train"])

    def check(self, s, hist, i):
        if len(hist.losses) != self.steps or not _finite(np.asarray(hist.losses)):
            return "loss curve has the wrong length or non-finite entries"
        if not hist.final_loss < hist.initial_loss:
            return f"final loss {hist.final_loss!r} >= initial loss {hist.initial_loss!r}"
        if s["final_loss"] is not None and hist.final_loss != s["final_loss"]:
            return f"final loss {hist.final_loss!r} differs from {s['final_loss']!r}"
        return ""

    def describe(self, s):
        return {name: asdict(s[name]) for name in ("task", "attn", "train")}


WORKLOADS = {w.name: w for w in (FwdF32N16k(), AblateKmeansTiny())}
