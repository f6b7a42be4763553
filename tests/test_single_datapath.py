"""The link and the sweep runner run one production path with no path knobs.

The transmitter, receiver, channel, transceiver and Viterbi decoder take no
backend and no reference-path switch: the per-symbol references live in
``tests/reference_paths.py``.  The sweep runner takes no queue backend and
no resume switch: the worker count picks the queue and the ``cache``
argument alone decides reuse.  A caller still passing one of the removed
options must fail loudly instead of having it swallowed, and the burst a
transmitter emits must not depend on the environment.
"""

import numpy as np
import pytest

from repro.channel.model import MimoChannel
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import MimoTransceiver
from repro.core.transmitter import MimoTransmitter
from repro.sim import MultiprocessingQueue, SweepRunner, SweepSpec
from repro.sim.engine import simulate_point

REMOVED_OPTIONS = [
    (MimoTransmitter, "backend", "numpy32"),
    (MimoTransmitter, "vectorized", False),
    (MimoReceiver, "vectorized", False),
    (MimoChannel, "vectorized", False),
    (MimoTransceiver, "backend", "numpy32"),
    (MimoTransceiver, "vectorized_tx", False),
    (MimoTransceiver, "vectorized_rx", False),
    (ViterbiDecoder, "vectorized", False),
    (SweepRunner, "queue", "serial"),
    (SweepRunner, "resume", False),
    (MultiprocessingQueue, "lookahead", 2),
]


@pytest.mark.parametrize(
    "cls, option, value",
    REMOVED_OPTIONS,
    ids=[f"{cls.__name__}-{option}" for cls, option, _ in REMOVED_OPTIONS],
)
def test_removed_option_is_rejected(cls, option, value):
    with pytest.raises(TypeError, match=option):
        cls(**{option: value})


@pytest.mark.parametrize(
    "method, args, option",
    [
        ("run", (), "use_cache"),
        ("run", (), "resume"),
        ("run_adaptive", (10,), "resume"),
    ],
)
def test_runner_methods_take_no_reuse_switch(method, args, option):
    # The cache argument of the constructor is the only reuse control.
    runner = SweepRunner(SweepSpec(), n_workers=1, cache=False)
    with pytest.raises(TypeError, match=option):
        getattr(runner, method)(*args, **{option: False})


def test_simulate_point_takes_no_channel_factory():
    with pytest.raises(TypeError, match="channel_factory"):
        simulate_point(None, 64, 1, channel_factory=lambda index: None)


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
