"""Tests for synthetic data, the Adam optimizer, the tiny trainer, and
binary tensor I/O."""

import io
import struct

import numpy as np
import pytest

from rpattn import (
    AdamState,
    AttnConfig,
    PARAM_FIELDS,
    SyntheticTask,
    TrainConfig,
    adam_step,
    gen_synthetic,
    init_params,
    load_params,
    param_shapes,
    read_tensor,
    save_params,
    train_tiny,
    write_tensor,
)
from rpattn.errors import (
    BadMagicError,
    BadShapeError,
    BadVersionError,
    ConfigError,
    DtypeMismatchError,
    RPAttnError,
    TrailingDataError,
    TrainDivergedError,
    TruncatedPayloadError,
)
from rpattn.synthetic import majority_label
from rpattn.tensor_io import MAGIC, VERSION, read_record, write_record

TASK = SyntheticTask(grid_h=4, grid_w=4, channels=8, num_clusters=3,
                     mean_scale=1.0, sigma=0.05, seed=7, num_samples=120)
ATTN = AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=4, grid_w=4)

KMEANS_ABLATE_LOSSES = [
    1.1129040875118732, 1.1226086022065798, 1.1021331117377557, 1.1055868747684805,
    1.0644057001621414, 1.0993216658644065, 1.0988732228356268, 1.0426418365253456,
    1.0582087555629742, 1.0136262754536893, 1.1153181020619618, 1.0398281204155304,
    1.0461939673158651, 0.9863242420685187, 0.9979656655089747, 0.9972436927401835,
    1.0000106303224294, 0.9891801985886299, 0.9033337422762194, 0.8980002539479188,
]


class TestSynthetic:
    def test_same_seed_identical_bytes(self):
        t1, l1 = gen_synthetic(TASK)
        t2, l2 = gen_synthetic(TASK)
        assert t1.tobytes() == t2.tobytes()
        assert np.array_equal(l1, l2)

    def test_label_rules(self):
        assert majority_label(np.zeros(9, dtype=int), 2) == 0
        assert majority_label(np.array([0, 0, 1, 1]), 3) == 0  # tie -> lowest index
        assert majority_label(np.array([2, 2, 1]), 3) == 2

    def test_sigma_zero_nearest_mean_recovery(self):
        task = SyntheticTask(grid_h=3, grid_w=3, channels=6, num_clusters=4,
                             sigma=0.0, seed=11, num_samples=40)
        tokens, labels = gen_synthetic(task)
        rng = np.random.default_rng(task.seed)
        means = rng.normal(0.0, task.mean_scale, (task.num_clusters, task.channels))
        for i in range(task.num_samples):
            d2 = ((tokens[i][:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            assert np.abs(tokens[i] - means[assign]).max() < 1e-12
            assert majority_label(assign, task.num_clusters) == labels[i]

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticTask(grid_h=2, grid_w=2, channels=4, num_clusters=1)
        with pytest.raises(ConfigError):
            SyntheticTask(grid_h=2, grid_w=2, channels=4, num_clusters=2, sigma=-0.1)


class TestAdam:
    def test_zero_grads_leave_params(self):
        param = np.array([1.0, -2.0])
        state = adam_step(param, np.zeros(2), AdamState(), lr=0.1)
        assert np.array_equal(param, np.array([1.0, -2.0]))
        assert state.t == 1 and state.m.shape == state.v.shape == (2,)

    def test_first_step_closed_form(self):
        lr, eps = 0.05, 1e-8
        param = np.array([0.0])
        adam_step(param, np.array([1.0]), AdamState(), lr=lr)
        assert abs(param[0] - (-lr * 1.0 / (1.0 + eps))) < 1e-16

    def test_five_step_scalar_trace(self):
        # independent plain-float reimplementation as the reference
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [1.0, -0.5, 0.25, 2.0, -1.0]
        theta, m, v = 0.3, 0.0, 0.0
        expected = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
            expected.append(theta)

        param = np.array([0.3])
        state = AdamState()
        got = []
        for g in grads:
            adam_step(param, np.array([g]), state, lr=lr)
            got.append(float(param[0]))
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-12


class TestTrainTiny:
    def test_zero_lr_constant_loss(self):
        # full-batch so every step evaluates the same data on frozen params
        cfg = TrainConfig(steps=5, batch_size=TASK.num_samples, lr=0.0, seed=0)
        history = train_tiny(TASK, ATTN, cfg)
        assert len(set(history.losses)) == 1

    def test_deterministic_loss_curves(self):
        cfg = TrainConfig(steps=25, batch_size=8, lr=0.01, seed=1)
        h1 = train_tiny(TASK, ATTN, cfg)
        h2 = train_tiny(TASK, ATTN, cfg)
        assert h1.losses == h2.losses
        assert h1.final_accuracy == h2.final_accuracy

    @pytest.mark.parametrize("variant", ["full", "gather_distribute", "kmeans",
                                         "softmax_baseline"])
    def test_every_variant_improves_on_noiseless_task(self, variant):
        task = SyntheticTask(grid_h=4, grid_w=4, channels=8, num_clusters=3,
                             sigma=0.0, seed=5, num_samples=96)
        cfg = TrainConfig(steps=200, batch_size=16, lr=0.01, seed=2, variant=variant)
        history = train_tiny(task, ATTN, cfg)
        assert history.final_loss < history.initial_loss

    def test_full_variant_beats_chance_within_500_steps(self):
        cfg = TrainConfig(steps=300, batch_size=16, lr=0.01, seed=3, variant="full")
        history = train_tiny(TASK, ATTN, cfg)
        chance = 1.0 / TASK.num_clusters
        assert history.final_accuracy > chance + 0.2

    def test_divergence_reports_step(self):
        task = SyntheticTask(grid_h=2, grid_w=2, channels=4, num_clusters=2,
                             sigma=0.0, seed=0, num_samples=20)
        attn = AttnConfig(channels=4, heads=2, num_representatives=2, grid_h=2, grid_w=2)
        with pytest.raises(TrainDivergedError) as err:
            with np.errstate(all="ignore"):
                train_tiny(task, attn, TrainConfig(steps=20, batch_size=4, lr=1e200, seed=0))
        assert err.value.step >= 1

    def test_kmeans_loss_curve_pinned(self):
        # configs/ablate.json settings, 20 steps. Exact equality: any change of
        # routing order or arithmetic shows here.
        cfg = TrainConfig(steps=20, batch_size=16, lr=0.01, seed=3, variant="kmeans")
        assert train_tiny(TASK, ATTN, cfg).losses == KMEANS_ABLATE_LOSSES

    def test_channel_mismatch_rejected(self):
        bad = AttnConfig(channels=16, heads=2, num_representatives=3, grid_h=4, grid_w=4)
        with pytest.raises(ConfigError):
            train_tiny(TASK, bad, TrainConfig(steps=1, batch_size=4, lr=0.01))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0, batch_size=4, lr=0.01)
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, batch_size=4, lr=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, batch_size=4, lr=0.1, variant="mean_pool")


ROUNDTRIP_SHAPES = [(), (0,), (3,), (2, 3), (2, 0, 3), (1, 2, 3, 4),
                    (2, 1, 2, 1, 2), (1, 2, 1, 3, 1, 2)]


class TestTensorIO:
    @pytest.mark.parametrize("shape", ROUNDTRIP_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_byte_exact(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(hash(shape) % 2**32)
        arr = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "t.rptn"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        # writing the readback reproduces the file bit for bit
        path2 = tmp_path / "t2.rptn"
        write_tensor(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rptn"
        write_tensor(path, np.ones(3))
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.rptn"
        write_tensor(path, np.ones(3))
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(BadVersionError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.rptn"
        write_tensor(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "t.rptn"
        write_tensor(path, np.ones(2))
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(TrailingDataError):
            read_tensor(path)

    def test_expected_dtype_mismatch(self, tmp_path):
        path = tmp_path / "t.rptn"
        write_tensor(path, np.ones(2, dtype=np.float32))
        with pytest.raises(DtypeMismatchError):
            read_tensor(path, expect_dtype=np.float64)

    @pytest.mark.parametrize("dims", [(0, 2**63 - 1), (0, 2**64 - 1), (2**62,)])
    def test_unshapeable_dims_rejected(self, tmp_path, dims):
        header = MAGIC + struct.pack("<BBB", VERSION, 1, len(dims))
        header += b"".join(struct.pack("<Q", d) for d in dims)
        path = tmp_path / "t.rptn"
        path.write_bytes(header)
        with pytest.raises(BadShapeError):
            read_tensor(path)
        params = tmp_path / "params.rptn"
        save_params(params, init_params(ATTN, 0))
        path.write_bytes(header + params.read_bytes())
        with pytest.raises(BadShapeError):
            load_params(path, ATTN)

    def test_huge_payload_beyond_file_is_truncated(self, tmp_path):
        # (2**59,) float64 is a shapeable array of 2**62 bytes; the file holds
        # one value, so the reader must not try to allocate the payload.
        header = MAGIC + struct.pack("<BBBQ", VERSION, 1, 1, 2**59)
        path = tmp_path / "t.rptn"
        path.write_bytes(header + np.ones(1).tobytes())
        assert path.stat().st_size == 23
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)
        params = tmp_path / "params.rptn"
        save_params(params, init_params(ATTN, 0))
        path.write_bytes(header + params.read_bytes())
        with pytest.raises(TruncatedPayloadError):
            load_params(path, ATTN)

    def test_short_payload_from_unseekable_stream(self):
        # a stream that cannot seek is not sized up front; the short read
        # itself is the truncation
        class Unseekable(io.BytesIO):
            def seekable(self):
                return False

        record = io.BytesIO()
        write_record(record, np.arange(4.0))
        assert np.array_equal(read_record(Unseekable(record.getvalue())), np.arange(4.0))
        with pytest.raises(TruncatedPayloadError):
            read_record(Unseekable(record.getvalue()[:-1]))

    def test_error_codes_distinct(self):
        codes = {cls.code for cls in (BadMagicError, BadShapeError, BadVersionError,
                                      DtypeMismatchError, TruncatedPayloadError,
                                      TrailingDataError)}
        assert len(codes) == 6

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_tensor(tmp_path / "t.rptn", np.ones(2, dtype=np.int32))


class TestParamsIO:
    def test_roundtrip(self, tmp_path):
        params = init_params(ATTN, 3)
        path = tmp_path / "params.rptn"
        save_params(path, params)
        back = load_params(path, ATTN)
        for name in PARAM_FIELDS:
            assert getattr(back, name).tobytes() == getattr(params, name).tobytes()

    def test_field_order_on_disk(self, tmp_path):
        params = init_params(ATTN, 4)
        path = tmp_path / "params.rptn"
        save_params(path, params)
        shapes = param_shapes(ATTN)
        with open(path, "rb") as fh:
            for name in PARAM_FIELDS:
                assert read_record(fh).shape == shapes[name]
            assert not fh.read(1)

    def test_wrong_config_rejected(self, tmp_path):
        params = init_params(ATTN, 5)
        path = tmp_path / "params.rptn"
        save_params(path, params)
        from dataclasses import replace

        with pytest.raises(ConfigError):
            load_params(path, replace(ATTN, num_representatives=5))

        # The older 14-record layout, with a latent-key shift after ln_k_gamma,
        # is refused rather than read one record out of step.
        with open(path, "wb") as fh:
            for name in PARAM_FIELDS:
                write_record(fh, getattr(params, name))
                if name == "ln_k_gamma":
                    write_record(fh, np.zeros(ATTN.head_dim))
        with pytest.raises(RPAttnError, match="dwc_kernel"):
            load_params(path, ATTN)
