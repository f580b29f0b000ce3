"""CLI smoke tests: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpattn.cli import TABLES, _build_parser, _load_config, main
from rpattn.tensor_io import write_tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_no_args_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["gradcheck", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_flops_flags(capsys, tmp_path):
    rc = main(["flops", "--n", "196", "--m", "49", "--c", "192", "--k", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total=39381888" in out
    rows = (tmp_path / "flops.csv").read_text().splitlines()
    assert rows[0] == "term,count"
    assert "total,39381888" in rows

    rc = main(["flops", "--n", "196", "--m", "49", "--c", "192",
               "--out", str(tmp_path)])  # missing --k
    assert rc == 2


def test_gradcheck_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, "g.json", {
        "attn": {"channels": 4, "heads": 2, "num_representatives": 2, "grid_h": 2, "grid_w": 2},
        "seeds": [0],
    })
    rc = main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "a")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rc = main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "gradcheck.csv").read_bytes()
    assert a == (tmp_path / "b" / "gradcheck.csv").read_bytes()


def test_emcheck_deterministic_csv(tmp_path, capsys):
    rc = main(["emcheck", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["emcheck", "--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "emcheck.csv").read_bytes()
    b = (tmp_path / "b" / "emcheck.csv").read_bytes()
    assert a == b


def test_maps_subcommand(tmp_path):
    cfg = _write_config(tmp_path, "m.json", {
        "attn": {"channels": 4, "heads": 2, "num_representatives": 3,
                 "grid_h": 2, "grid_w": 2},
        "seed": 0,
    })
    rc = main(["maps", "--config", cfg, "--out", str(tmp_path / "maps")])
    assert rc == 0
    files = sorted(os.listdir(tmp_path / "maps"))
    assert len(files) == 2 * 3  # heads x slots for one batch row
    assert files[0].endswith(".pgm")

    # float32 tokens from a file run through the float64 layer
    write_tensor(tmp_path / "x.rptn", np.ones((2, 4, 4), dtype=np.float32))
    cfg = _write_config(tmp_path, "m.json",
                        _with(MAPS_CFG, None, "input", str(tmp_path / "x.rptn")))
    assert main(["maps", "--config", cfg, "--out", str(tmp_path / "from_file")]) == 0
    assert len(os.listdir(tmp_path / "from_file")) == 2 * 2 * 3


def test_train_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, "t.json", {
        "task": {"grid_h": 2, "grid_w": 2, "channels": 4, "num_clusters": 2,
                 "sigma": 0.0, "seed": 0, "num_samples": 30},
        "attn": {"heads": 2, "num_representatives": 2},
        "train": {"steps": 40, "batch_size": 8, "lr": 0.02, "seed": 0},
    })
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "train")])
    assert rc == 0
    lines = (tmp_path / "train" / "train_history.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 41


def test_ablate_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, "a.json", {
        "task": {"grid_h": 2, "grid_w": 2, "channels": 4, "num_clusters": 2,
                 "sigma": 0.0, "seed": 1, "num_samples": 30},
        "attn": {"heads": 2, "num_representatives": 2},
        "train": {"steps": 30, "batch_size": 8, "lr": 0.02, "seed": 0},
        "variants": ["full", "gather_distribute"],
    })
    rc = main(["ablate", "--config", cfg, "--out", str(tmp_path / "ab")])
    assert rc == 0
    text = (tmp_path / "ab" / "ablate.csv").read_text()
    assert "full" in text and "gather_distribute" in text


TRAIN_CFG = {
    "task": {"grid_h": 2, "grid_w": 2, "channels": 4, "num_clusters": 2, "num_samples": 10},
    "attn": {"heads": 2, "num_representatives": 2},
    "train": {"steps": 2, "batch_size": 4, "lr": 0.01},
}
MAPS_CFG = {"attn": {"channels": 4, "heads": 2, "num_representatives": 3,
                     "grid_h": 2, "grid_w": 2}}
SHIFT_CFG = {
    "attn": {"channels": 8, "heads": 2, "num_representatives": 4},
    "image_size": 16, "image_channels": 4, "num_blobs": 2, "patch_size": 4,
    "pool_grid": [2, 2], "shifts": [0, 1, 2], "seeds": [0, 1],
}
BENCH_CFG = {"mechanisms": ["constant_dummy"]}


def _with(cfg, section, key, value=None):
    """A copy of cfg with section[key] set to value, or removed when value is None."""
    out = json.loads(json.dumps(cfg))
    entries = out[section] if section else out
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    return out


BAD_KEY_CASES = [
    ("train", _with(TRAIN_CFG, "attn", "routng", "kmeans"), "routng"),
    ("train", _with(TRAIN_CFG, "train", "weight_decay", 0.0), "weight_decay"),
    ("train", _with(TRAIN_CFG, "task", "sigmaa", 0.1), "sigmaa"),
    ("train", _with(TRAIN_CFG, "attn", "num_representatives"), "num_representatives"),
    ("train", _with(TRAIN_CFG, "train", "lr"), "lr"),
    ("train", _with(TRAIN_CFG, None, "trian", {}), "trian"),
    ("ablate", _with(TRAIN_CFG, "attn", "epsilon", 1e-6), "epsilon"),
    ("ablate", _with(TRAIN_CFG, "task", "num_clusters"), "num_clusters"),
    ("maps", _with(MAPS_CFG, "attn", "routng", "kmeans"), "routng"),
    ("maps", _with(MAPS_CFG, "attn", "grid_w"), "grid_w"),
    ("gradcheck", _with(MAPS_CFG, "attn", "ln_eps", 1e-5), "ln_eps"),
    ("bench", {"mechanisms": ["constant_dummy"], "expected_slopes": {}}, "expected_slopes"),
    # retired settings: fixed pass bounds and shift switches
    ("gradcheck", _with(MAPS_CFG, None, "step", "1e-5"), "step"),
    ("gradcheck", _with(MAPS_CFG, None, "tol", "x"), "tol"),
    ("emcheck", {"tol": 1e-3}, "tol"),
    # retired settings: the bench protocol is fixed (iters, min_sample_ms and
    # the emcheck keys are BAD_VALUE_CASES)
    *[("bench", _with(BENCH_CFG, None, key, value), key)
      for key, value in (("sizes", [256, 1024, 4096]), ("reps", 3), ("warmup", 2),
                         ("channels", 64), ("heads", 2), ("num_representatives", 49),
                         ("row_chunk", 1024))],
    ("shift", _with(SHIFT_CFG, None, "mode", "wrapp"), "mode"),
    ("shift", _with(SHIFT_CFG, None, "assert_ordering", "false"), "assert_ordering"),
    ("shift", _with(SHIFT_CFG, None, "margin", 6), "margin"),
    ("shift", _with(SHIFT_CFG, None, "attn"), "attn"),
    # keys the subcommand sets itself
    ("gradcheck", _with(MAPS_CFG, "attn", "dtype", "float32"), "dtype"),
    *[("shift", _with(SHIFT_CFG, "attn", key, value), key)
      for key, value in (("grid_h", 99), ("grid_w", 99), ("dtype", "float32"))],
    *[(command, _with(TRAIN_CFG, "attn", key, value), key)
      for command in ("train", "ablate")
      for key, value in (("grid_h", 3), ("grid_w", 3), ("channels", 8), ("dtype", "float32"))],
    ("ablate", _with(TRAIN_CFG, "train", "variant", "softmax_baseline"), "variant"),
    ("maps", _with(MAPS_CFG, "attn", "dtype", "float32"), "dtype"),
]


@pytest.mark.parametrize("command,payload,key", BAD_KEY_CASES,
                         ids=[f"{command}-{key}" for command, _, key in BAD_KEY_CASES])
def test_unknown_or_missing_key_exit_2(tmp_path, capsys, command, payload, key):
    cfg = _write_config(tmp_path, "c.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


BAD_COUNT_CASES = [
    ("task", "grid_h", 4.0),
    ("task", "seed", -1),
    ("attn", "num_representatives", 2.5),
    ("attn", "kmeans_seed", -1),
    ("train", "seed", -1),
    ("train", "batch_size", True),
]


@pytest.mark.parametrize("section,key,value", BAD_COUNT_CASES,
                         ids=[f"{section}-{key}" for section, key, _ in BAD_COUNT_CASES])
def test_bad_count_exit_2(tmp_path, capsys, section, key, value):
    cfg = _write_config(tmp_path, "c.json", _with(TRAIN_CFG, section, key, value))
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


BAD_VALUE_CASES = [
    pytest.param("flops", {"n": 196, "m": 49, "k": 3}, "missing config key(s): c",
                 id="flops-missing-key"),
    # retired settings: the emcheck and bench protocols are fixed, so any value is unknown
    *[pytest.param("emcheck", {key: 0}, f"unknown config key(s): {key}", id=f"emcheck-{key}")
      for key in ("trials", "heads", "tokens", "head_dim", "slots", "seed")],
    *[pytest.param("bench", _with(BENCH_CFG, None, key, value), f"unknown config key(s): {key}",
                   id=f"bench-{key}") for key, value in (("min_sample_ms", "x"), ("iters", 2.5))],
    pytest.param("shift", _with(SHIFT_CFG, None, "pool_grid", 4),
                 "pool_grid must be a list of 2 value(s)", id="shift-pool_grid-scalar"),
    pytest.param("shift", _with(SHIFT_CFG, None, "pool_grid", [2, 2.0]),
                 "pool_grid[1] must be an integer", id="shift-pool_grid-float"),
    pytest.param("train", _with(TRAIN_CFG, "attn", "enable_interact", "false"),
                 "enable_interact must be a bool", id="train-enable_interact"),
    pytest.param("train", _with(TRAIN_CFG, "train", "lr", True),
                 "lr must be a finite real", id="train-lr"),
    pytest.param("train", _with(TRAIN_CFG, "task", "sigma", "0.1"),
                 "sigma must be a finite real", id="train-sigma"),
    pytest.param("train", _with(TRAIN_CFG, "task", "mean_scale", "x"),
                 "mean_scale must be a finite real", id="train-mean_scale"),
    pytest.param("shift", _with(SHIFT_CFG, None, "patch_size", 0),
                 "patch_size must be an integer >= 1", id="shift-patch_size"),
    # keys that constrain each other, checked before the first seed
    pytest.param("shift", {**SHIFT_CFG, "image_size": 3, "patch_size": 4},
                 "image_size 3 must be a multiple of patch_size 4", id="shift-image-below-patch"),
    pytest.param("shift", _with(SHIFT_CFG, None, "image_size", 30),
                 "image_size 30 must be a multiple of patch_size 4", id="shift-image-indivisible"),
    pytest.param("shift", _with(SHIFT_CFG, None, "shifts"),
                 "image_size 16 too small for shifts up to 8", id="shift-image-below-margin"),
    pytest.param("shift", _with(SHIFT_CFG, None, "pool_grid", [3, 3]),
                 "pool_grid [3, 3] does not divide the layer's 4x4 patch grid",
                 id="shift-pool_grid-indivisible"),
    pytest.param("bench", _with(BENCH_CFG, None, "mechanisms", []),
                 "mechanisms must be a list of one or more", id="bench-mechanisms-empty"),
    pytest.param("bench", _with(BENCH_CFG, None, "mechanisms", ["constant_dumy"]),
                 "unknown mechanism 'constant_dumy'", id="bench-mechanisms-unknown"),
    pytest.param("bench", _with(BENCH_CFG, None, "mechanisms", ["constant_dummy"] * 2),
                 "mechanism 'constant_dummy' is listed more than once",
                 id="bench-mechanisms-repeated"),
    pytest.param("maps", _with(MAPS_CFG, None, "seed", -1),
                 "seed must be an integer >= 0", id="maps-seed"),
    pytest.param("maps", _with(MAPS_CFG, None, "input", 5),
                 "input must be a string", id="maps-input-int"),
    pytest.param("maps", _with(MAPS_CFG, None, "input", "no-such-file.rptn"),
                 "input must name an existing file", id="maps-input-missing"),
    # malformed input files (INPUT_FILES); MAPS_CFG's layer takes [B, 4, 4] tokens
    pytest.param("maps", _with(MAPS_CFG, None, "input", "magic.rptn"),
                 "input 'magic.rptn': bad magic", id="maps-input-bad-magic"),
    pytest.param("maps", _with(MAPS_CFG, None, "input", "rank2.rptn"),
                 "input 'rank2.rptn': input must be [B, N, C]", id="maps-input-rank"),
    pytest.param("maps", _with(MAPS_CFG, None, "input", "channels.rptn"),
                 "input 'channels.rptn': input channels 3 != config channels 4",
                 id="maps-input-channels"),
    pytest.param("maps", _with(MAPS_CFG, None, "input", "nan.rptn"),
                 "input 'nan.rptn': input holds NaN", id="maps-input-nan"),
    pytest.param("gradcheck", _with(MAPS_CFG, None, "seeds", []),
                 "seeds must be a list of one or more", id="gradcheck-seeds-empty"),
    pytest.param("gradcheck", _with(MAPS_CFG, None, "seeds", [-1]),
                 "seeds[0] must be an integer >= 0", id="gradcheck-seeds-negative"),
    pytest.param("shift", _with(SHIFT_CFG, None, "seeds", []),
                 "seeds must be a list of one or more", id="shift-seeds-empty"),
    pytest.param("shift", _with(SHIFT_CFG, None, "shifts", []),
                 "shifts must be a list of one or more", id="shift-shifts-empty"),
    pytest.param("shift", _with(SHIFT_CFG, None, "shifts", [0]),
                 "shifts must start at 0 and hold a second shift", id="shift-shifts-zero-only"),
    pytest.param("ablate", _with(TRAIN_CFG, None, "variants", []),
                 "variants must be a list of one or more", id="ablate-variants-empty"),
    pytest.param("ablate", _with(TRAIN_CFG, None, "variants", "full"),
                 "variants must be a list of one or more", id="ablate-variants-string"),
    pytest.param("ablate", _with(TRAIN_CFG, None, "variants", ["full", "ful"]),
                 "variants[1] must be one of", id="ablate-variants-unknown"),
    pytest.param("flops", {"n": 196, "m": 49, "c": 192, "k": 2.0},
                 "k must be an integer >= 1", id="flops-k-float"),
]


# The files the maps cases name, written into the directory each case runs in.
INPUT_FILES = {"magic.rptn": b"NOPE", "rank2.rptn": np.zeros((4, 4)),
               "channels.rptn": np.zeros((1, 4, 3)), "nan.rptn": np.full((1, 4, 4), np.nan)}


@pytest.mark.parametrize("command,payload,message", BAD_VALUE_CASES)
def test_bad_value_exit_2(tmp_path, monkeypatch, capsys, command, payload, message):
    monkeypatch.chdir(tmp_path)
    name = payload.get("input")
    if name in INPUT_FILES:
        if isinstance(INPUT_FILES[name], bytes):
            (tmp_path / name).write_bytes(INPUT_FILES[name])
        else:
            write_tensor(tmp_path / name, INPUT_FILES[name])
    cfg = _write_config(tmp_path, "c.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_bench_subcommand_fast(tmp_path, capsys):
    cfg = _write_config(tmp_path, "b.json", BENCH_CFG)
    rc = main(["bench", "--config", cfg, "--out", str(tmp_path / "bench")])
    assert rc == 0
    times = (tmp_path / "bench" / "bench_times.csv").read_text().splitlines()
    assert times[0] == "mechanism,n,median_ms:volatile"
    assert [row.split(",")[:2] for row in times[1:]] == [
        ["constant_dummy", str(n)] for n in (256, 1024, 4096, 16384)]
    slopes = (tmp_path / "bench" / "bench_slopes.csv").read_text().splitlines()
    assert slopes[0] == "mechanism,slope:volatile"
    assert [row.split(",")[0] for row in slopes[1:]] == ["constant_dummy"]


def test_bench_runs_without_config():
    # With no --config, bench measures the four banded mechanisms.
    args = _build_parser().parse_args(["bench", "--out", "out"])
    assert _load_config(args.config, TABLES["bench"], vars(args)) == {
        "mechanisms": ["constant_dummy", "quadratic_dummy", "rpattention", "softmax_dense"]}


def test_shift_subcommand_fast(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", SHIFT_CFG)
    rc = main(["shift", "--config", cfg, "--out", str(tmp_path / "shift")])
    assert rc == 0
    lines = (tmp_path / "shift" / "shift_mean.csv").read_text().splitlines()
    assert lines[0] == "shift,cosine_rp,cosine_pooled"
    assert len(lines) == 4


def test_every_shipped_config_has_a_subcommand():
    assert sorted(path.stem for path in CONFIGS.glob("*.json")) == sorted(TABLES)


@pytest.mark.parametrize("command", list(TABLES))
def test_shipped_config_runs(tmp_path, capsys, command):
    # configs/<command>.json resolves against the subcommand's table, and all
    # but bench (about four minutes) run to a pass.
    path = str(CONFIGS / f"{command}.json")
    _load_config(path, TABLES[command], {})
    if command != "bench":
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0


def test_module_entrypoint_with_thread_cap(tmp_path):
    env = dict(os.environ, RPATTN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "rpattn.cli", "flops", "--n", "1", "--m", "1",
         "--c", "1", "--k", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "total=12" in proc.stdout


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_COUNT = ("import os, rpattn, numpy as np; a = np.ones((256, 256), np.float32); a @ a; "
                "print(len(os.listdir('/proc/self/task')))")


def _threads_after_matmul(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, "-c", THREAD_COUNT], capture_output=True, text=True,
                          env=dict(env, **env_vars), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_thread_cap_applies_before_numpy_loads():
    assert _threads_after_matmul(RPATTN_THREADS="1") == 1
    # explicit BLAS variables still win over the package cap
    if len(os.sched_getaffinity(0)) >= 2:
        assert _threads_after_matmul(RPATTN_THREADS="1", **dict.fromkeys(BLAS_VARS, "2")) == 2


def test_bad_thread_cap_is_a_config_error():
    env = dict(os.environ, RPATTN_THREADS="two")
    proc = subprocess.run([sys.executable, "-c", "import rpattn"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "ConfigError: RPATTN_THREADS must be an integer" in proc.stderr
