import math
import re
from fractions import Fraction

import numpy as np
import pytest

from mixopt.diffnet import init_adam
from mixopt.errors import DomainError, check_real
from mixopt.ga import GAConfig, compare_timing
from mixopt.physics import LossWeights
from mixopt.rl import PPOConfig, QuadraticEnv, RewardHistory, init_actor
from mixopt.sampling import SampleBounds


@pytest.mark.parametrize("value, low, high, above", [
    (0.5, 0.0, 1.0, False), (0, 0.0, 1.0, False), (1, 0.0, 1.0, False),
    (np.float32(0.25), 0.0, 1.0, False), (np.int64(3), 0.0, math.inf, True),
    (Fraction(1, 4), 0.0, 1.0, True), (1e300, 0.0, math.inf, True),
])
def test_check_real_returns_a_finite_real_in_range_as_a_float(value, low, high, above):
    got = check_real("v", value, low, high, above)
    assert type(got) is float and got == value


@pytest.mark.parametrize("value, low, high, above, message", [
    (True, 0.0, math.inf, True, "v must be a real number, got True"),
    (False, 0.0, 1.0, False, "v must be a real number, got False"),
    ("0.2", 0.0, math.inf, True, "v must be a real number, got '0.2'"),
    (None, 0.0, 1.0, False, "v must be a real number, got None"),
    (1j, 0.0, 1.0, False, "v must be a real number, got 1j"),
    (math.nan, 0.0, math.inf, True, "v must lie within (0, inf), got nan"),
    (math.inf, 0.0, math.inf, False, "v must lie within [0, inf), got inf"),
    (-math.inf, -1.0, 1.0, False, "v must lie within [-1, 1], got -inf"),
    (0.0, 0.0, math.inf, True, "v must lie within (0, inf), got 0.0"),
    (-1e-9, 0.0, 7.0, False, "v must lie within [0, 7], got -1e-09"),
    (7.5, 0.0, 7.0, False, "v must lie within [0, 7], got 7.5"),
    (10 ** 400, 0.0, math.inf, True, f"v must lie within (0, inf), got {10 ** 400!r}"),
])
def test_check_real_names_the_field_and_shows_the_value(value, low, high, above, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_real("v", value, low, high, above)


def _compare_with_fractional_repeats():
    compare_timing(QuadraticEnv(), [10.0], GAConfig(population=4, generations=1),
                   init_actor(PPOConfig(), seed=0), repeats=1.5)


@pytest.mark.parametrize("call, message", [
    (lambda: PPOConfig(clip_eps="0.2"), "clip_eps must be a real number, got '0.2'"),
    (lambda: GAConfig(crossover_rate="0.5"), "crossover_rate must be a real number, got '0.5'"),
    (lambda: LossWeights(pde="1"), "loss weight pde must be a real number, got '1'"),
    (lambda: SampleBounds(re=("a", 2.0)), "bounds for re must be a real number, got 'a'"),
    (lambda: init_adam(3, lr=math.inf), "Adam learning rate must lie within (0, inf), got inf"),
    (_compare_with_fractional_repeats, "repeats must be an integer, got 1.5"),
    (lambda: RewardHistory().tail_mean(2.5), "n must be an integer, got 2.5"),
], ids=["ppo_clip_eps", "ga_crossover_rate", "loss_weight", "sample_bounds", "adam_lr",
        "compare_repeats", "tail_mean"])
def test_settings_that_are_not_real_numbers_in_range_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
