"""The link runs one production datapath with no arithmetic or path knobs.

The transmitter, receiver, channel and transceiver take no backend and no
reference-path switch: the per-symbol references live in
``tests/reference_paths.py``.  A caller still passing one of the removed
options must fail loudly instead of having it swallowed, and the burst a
transmitter emits must not depend on the environment.
"""

import numpy as np
import pytest

from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import MimoTransceiver
from repro.core.transmitter import MimoTransmitter

REMOVED_OPTIONS = [
    (MimoTransmitter, "backend", "numpy32"),
    (MimoTransmitter, "vectorized", False),
    (MimoReceiver, "vectorized", False),
    (MimoChannel, "vectorized", False),
    (MimoTransceiver, "backend", "numpy32"),
    (MimoTransceiver, "vectorized_tx", False),
    (MimoTransceiver, "vectorized_rx", False),
]


@pytest.mark.parametrize(
    "cls, option, value",
    REMOVED_OPTIONS,
    ids=[f"{cls.__name__}-{option}" for cls, option, _ in REMOVED_OPTIONS],
)
def test_removed_option_is_rejected(cls, option, value):
    with pytest.raises(TypeError, match=option):
        cls(**{option: value})


def test_burst_ignores_the_retired_backend_variable(monkeypatch):
    config = TransceiverConfig()
    rng = np.random.default_rng(12)
    bits = [
        rng.integers(0, 2, size=300, dtype=np.uint8) for _ in range(config.n_streams)
    ]
    plain = MimoTransmitter(config).transmit(bits)
    monkeypatch.setenv("REPRO_DSP_BACKEND", "numpy32")
    selected = MimoTransmitter(config).transmit(bits)
    assert selected.samples.dtype == np.complex128
    np.testing.assert_array_equal(selected.samples, plain.samples)
