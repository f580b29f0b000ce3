"""One rule per field type in every config: errors.check_count on each integer field,
check_flag on each bool and check_real on each real number."""

import numpy as np
import pytest

from rpattn import AttnConfig, SyntheticTask, TrainConfig, flops_estimate, softmax_flops
from rpattn.errors import ConfigError, check_count, check_real

ATTN = dict(channels=8, heads=2, num_representatives=3, grid_h=2, grid_w=2)
TRAIN = dict(steps=1, batch_size=4, lr=0.01)
TASK = dict(grid_h=2, grid_w=2, channels=4, num_clusters=2)
FLOPS = dict(n=196, m=49, c=192, k=3)

# (constructor, valid keyword arguments, field, minimum)
COUNT_FIELDS = (
    [(AttnConfig, ATTN, f, 1)
     for f in ("channels", "heads", "num_representatives", "grid_h", "grid_w", "dwc_kernel")]
    + [(AttnConfig, ATTN, "kmeans_seed", 0)]
    + [(TrainConfig, TRAIN, f, 1) for f in ("steps", "batch_size")]
    + [(TrainConfig, TRAIN, "seed", 0)]
    + [(SyntheticTask, TASK, f, 1) for f in ("grid_h", "grid_w", "channels", "num_samples")]
    + [(SyntheticTask, TASK, "num_clusters", 2), (SyntheticTask, TASK, "seed", 0)]
    + [(flops_estimate, FLOPS, f, 1) for f in "nmck"]
    + [(softmax_flops, dict(n=196, c=192), f, 1) for f in "nc"]
)
IDS = [f"{make.__name__}.{name}" for make, _, name, _ in COUNT_FIELDS]


@pytest.mark.parametrize("make,kwargs,name,minimum", COUNT_FIELDS, ids=IDS)
@pytest.mark.parametrize("kind", ["below_minimum", "bool", "float", "str"])
def test_bad_count_rejected(make, kwargs, name, minimum, kind):
    bad = {"below_minimum": minimum - 1, "bool": True,
           "float": float(kwargs.get(name, minimum + 1)), "str": "3"}[kind]
    with pytest.raises(ConfigError, match=f"^{name} must be an integer >= {minimum}"):
        make(**{**kwargs, name: bad})


@pytest.mark.parametrize("make,kwargs,name,minimum", COUNT_FIELDS, ids=IDS)
def test_numpy_integer_count_accepted(make, kwargs, name, minimum):
    value = kwargs.get(name, minimum)
    assert make(**{**kwargs, name: np.int64(value)}) == make(**{**kwargs, name: value})


def test_check_count_returns_python_int():
    got = check_count("n", np.int32(5))
    assert got == 5 and type(got) is int
    # Integer arithmetic stays exact past the int64 range.
    assert flops_estimate(np.int64(10**9), 10**6, 10**5, 9).proj == 4 * 10**19


FLAG_FIELDS = [(AttnConfig, ATTN, f) for f in ("enable_interact", "enable_dwc")]
FLAG_IDS = [f"{make.__name__}.{name}" for make, _, name in FLAG_FIELDS]


@pytest.mark.parametrize("make,kwargs,name", FLAG_FIELDS, ids=FLAG_IDS)
@pytest.mark.parametrize("bad", [0, 1, "false", None, np.int64(1)],
                         ids=["zero", "one", "str", "none", "numpy_int"])
def test_bad_flag_rejected(make, kwargs, name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be a bool"):
        make(**{**kwargs, name: bad})


@pytest.mark.parametrize("make,kwargs,name", FLAG_FIELDS, ids=FLAG_IDS)
def test_numpy_bool_flag_accepted(make, kwargs, name):
    assert make(**{**kwargs, name: np.False_}) == make(**{**kwargs, name: False})


# (constructor, valid keyword arguments, field, minimum)
REAL_FIELDS = [(TrainConfig, TRAIN, "lr", 0), (SyntheticTask, TASK, "sigma", 0),
               (SyntheticTask, TASK, "mean_scale", 0)]
REAL_IDS = [f"{make.__name__}.{name}" for make, _, name, _ in REAL_FIELDS]


@pytest.mark.parametrize("make,kwargs,name,minimum", REAL_FIELDS, ids=REAL_IDS)
@pytest.mark.parametrize("kind", ["below_minimum", "bool", "str", "nan", "inf"])
def test_bad_real_rejected(make, kwargs, name, minimum, kind):
    bad = {"below_minimum": minimum - 0.5, "bool": True, "str": "0.1",
           "nan": float("nan"), "inf": float("inf")}[kind]
    with pytest.raises(ConfigError, match=f"^{name} must be a finite real >= {minimum}"):
        make(**{**kwargs, name: bad})


@pytest.mark.parametrize("make,kwargs,name,minimum", REAL_FIELDS, ids=REAL_IDS)
@pytest.mark.parametrize("value", [0, 2, np.float32(0.5), np.int64(1)],
                         ids=["int_zero", "int", "numpy_float", "numpy_int"])
def test_real_accepted(make, kwargs, name, minimum, value):
    assert getattr(make(**{**kwargs, name: value}), name) == value


def test_check_real_without_minimum():
    assert check_real("x", -2) == -2.0 and type(check_real("x", np.float32(1))) is float
    with pytest.raises(ConfigError, match="^x must be a finite real, got"):
        check_real("x", float("-inf"))
