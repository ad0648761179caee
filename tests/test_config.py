"""Every config checks itself when it is built, and cannot change afterwards."""

import dataclasses

import pytest

from xmodal import harness
from xmodal.config import ConfigError
from xmodal.data import SynthConfig
from xmodal.encoder import EncoderConfig
from xmodal.evaluation import EvalProtocol
from xmodal.harness import TrainConfig
from xmodal.losses import LossConfig

ENCODER = EncoderConfig(input_dim=6, num_classes=0, stage_dims=(8, 8), tap_stage=1, d=5)

# config class -> (keyword arguments of a valid config, an out-of-range
# field value, the message it raises)
CASES = {
    "EncoderConfig": (EncoderConfig, dict(input_dim=6, num_classes=0, stage_dims=(8, 8), tap_stage=1),
                      {"tap_stage": 9}, "EncoderConfig: tap_stage out of range"),
    "LossConfig": (LossConfig, {}, {"rho": -0.5},
                   "LossConfig: rho must be a finite number >= 0, got -0.5"),
    "TrainConfig": (TrainConfig, dict(encoder=ENCODER, epochs=2, freeze_stage_epochs=1),
                    {"K": 0}, "TrainConfig: need P >= 2 and K >= 1"),
    "SynthConfig": (SynthConfig, {}, {"seed": -1}, "SynthConfig: seed must be >= 0, got -1"),
    "EvalProtocol": (EvalProtocol, {}, {"trials": 0}, "EvalProtocol: trials must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_of_range_value_raises_from_the_constructor_and_from_replace(name):
    cls, kwargs, bad, message = CASES[name]
    with pytest.raises(ConfigError) as err:
        cls(**{**kwargs, **bad})
    assert str(err.value) == message
    cfg = cls(**kwargs)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, **bad)
    assert str(err.value) == message
    # frozen: no field can take the value past the check
    field, value = next(iter(bad.items()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)


def test_config_error_is_one_class():
    assert harness.ConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)
