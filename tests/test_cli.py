"""CLI smoke tests: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import pytest

from rpattn.cli import main


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
        "channels": 4, "heads": 2, "num_representatives": 2,
        "grid_h": 2, "grid_w": 2, "seeds": [0], "tol": 1e-4,
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
    ("gradcheck", _with(MAPS_CFG["attn"], None, "ln_eps", 1e-5), "ln_eps"),
    ("bench", {"mechanisms": ["constant_dummy"], "expected_slopes": {}}, "expected_slopes"),
]


@pytest.mark.parametrize("command,payload,key", BAD_KEY_CASES,
                         ids=[f"{command}-{key}" for command, _, key in BAD_KEY_CASES])
def test_unknown_or_missing_key_exit_2(tmp_path, capsys, command, payload, key):
    cfg = _write_config(tmp_path, "c.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_bench_subcommand_fast(tmp_path, capsys):
    cfg = _write_config(tmp_path, "b.json", {
        "mechanisms": ["constant_dummy"],
        "sizes": [64, 512, 4096],
        "reps": 1, "warmup": 0, "iters": 2, "min_sample_ms": 0.2,
    })
    rc = main(["bench", "--config", cfg, "--out", str(tmp_path / "bench")])
    assert rc == 0
    assert (tmp_path / "bench" / "bench_times.csv").exists()
    assert (tmp_path / "bench" / "bench_slopes.csv").exists()


def test_shift_subcommand_fast(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", {
        "image_size": 16, "image_channels": 4, "num_blobs": 2,
        "patch_size": 4, "channels": 8, "heads": 2,
        "pool_grid": [2, 2], "num_representatives": 4,
        "shifts": [0, 1, 2], "seeds": [0, 1], "margin": 6,
        "assert_ordering": False,
    })
    rc = main(["shift", "--config", cfg, "--out", str(tmp_path / "shift")])
    assert rc == 0
    lines = (tmp_path / "shift" / "shift_mean.csv").read_text().splitlines()
    assert lines[0] == "shift,cosine_rp,cosine_pooled"
    assert len(lines) == 4


def test_module_entrypoint_with_thread_cap(tmp_path):
    env = dict(os.environ, RPATTN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "rpattn.cli", "flops", "--n", "1", "--m", "1",
         "--c", "1", "--k", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "total=12" in proc.stdout
