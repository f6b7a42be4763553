"""Which functions of the link path the traced run wraps, and under which label.

Labels are ``<layer>.<op>``, the layers being the repo's modules on the
link path (``core``, ``coding``, ``modulation``, ``dsp``, ``mimo``, ``sync``,
``channel``, ``sim``, ``stream``).  Functions are patched where the callers
look them up: methods on their defining class, functions imported by name
on the importing module (``repro.core.receiver.deinterleave``).  The FFT is
wrapped on :class:`repro.dsp.fft.FftPlan`, which every float transform --
module-level ``fft``/``ifft`` and the DSP backend -- goes through.

``PARENT_SIM`` are the sweep layers that run in the parent process of a
pooled sweep; the datapath layers of a pooled sweep run in worker
processes, where spans cannot be collected, so they are measured in a
separate in-process pass.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional, Tuple

from tracer import Tracer

#: label -> ((module, owner-or-None, attribute), ...)
_Target = Tuple[str, Optional[str], str]

LAYERS: Dict[str, Tuple[_Target, ...]] = {
    "core.run_burst": (("repro.core.transceiver", "MimoTransceiver", "run_burst"),),
    "core.transmit": (
        ("repro.core.transmitter", "MimoTransmitter", "transmit_random"),
        ("repro.core.transmitter", "MimoTransmitter", "transmit"),
    ),
    "core.receive": (
        ("repro.core.receiver", "MimoReceiver", "receive_window"),
        ("repro.core.receiver", "MimoReceiver", "receive"),
    ),
    "core.estimate_channel": (("repro.core.receiver", "MimoReceiver", "estimate_channel"),),
    "core.equalize_burst": (("repro.core.receiver", "MimoReceiver", "equalize_burst"),),
    "coding.scrambler.process": (("repro.coding.scrambler", "Scrambler", "process"),),
    "coding.encoder.encode": (("repro.coding.convolutional", "ConvolutionalEncoder", "encode"),),
    "coding.deinterleave": (("repro.core.receiver", None, "deinterleave"),),
    "coding.viterbi.decode": (("repro.coding.viterbi", "ViterbiDecoder", "decode"),),
    "modulation.map": (("repro.modulation.mapper", "SymbolMapper", "map_bits"),),
    "modulation.demap": (("repro.modulation.demapper", "SymbolDemapper", "demap"),),
    "dsp.fft": (
        ("repro.dsp.fft", "FftPlan", "forward"),
        ("repro.dsp.fft", "FftPlan", "inverse"),
    ),
    "mimo.estimator.estimate": (("repro.mimo.channel_estimation", "ChannelEstimator", "estimate"),),
    "mimo.qr": (("repro.mimo.channel_estimation", None, "qr_decompose_givens"),),
    "mimo.detect": (
        ("repro.core.receiver", None, "zf_detect"),
        ("repro.mimo.detector", "MmseDetector", "detect"),
    ),
    "sync.search": (
        ("repro.sync.time_sync", "TimeSynchronizer", "search"),
        ("repro.sync.time_sync", "TimeSynchronizer", "normalized_metric"),
    ),
    "sync.cfo.estimate": (("repro.sync.cfo", "CfoEstimator", "estimate"),),
    "sync.cfo.correct": (("repro.sync.cfo", "CfoEstimator", "correct"),),
    "channel.transmit": (("repro.channel.model", "MimoChannel", "transmit"),),
    "stream.scheduler": (("repro.stream.scheduler", "DownlinkScheduler", "run"),),
    "stream.pipeline.push": (
        ("repro.stream.pipeline", "StreamingReceiver", "push"),
        ("repro.stream.pipeline", "StreamingReceiver", "flush"),
    ),
    "stream.detector.push": (
        ("repro.stream.detector", "StreamFrameDetector", "push"),
        ("repro.stream.detector", "StreamFrameDetector", "flush"),
    ),
    "sim.runner.run": (("repro.sim.runner", "SweepRunner", "run"),),
    "sim.queue.wait": (
        ("repro.sim.queue", "MultiprocessingQueue", "next_result"),
        ("repro.sim.queue", "InProcessQueue", "next_result"),
    ),
    "sim.store.put": (("repro.sim.store", "ResultStore", "put"),),
    "sim.engine.batch": (("repro.sim.runner", None, "simulate_batch"),),
}

PARENT_SIM = ("sim.runner.run", "sim.queue.wait", "sim.store.put")


def _owner(module: str, owner: Optional[str]) -> Any:
    target = importlib.import_module(module)
    return getattr(target, owner) if owner is not None else target


def install(
    tracer: Tracer,
    labels=None,
    on_return: Optional[Dict[str, Callable[[Any], None]]] = None,
) -> None:
    """Patch every function of ``labels`` (default: all layers) into ``tracer``."""
    hooks = on_return or {}
    for label in labels if labels is not None else LAYERS:
        for module, owner, attr in LAYERS[label]:
            tracer.patch(_owner(module, owner), attr, label, hooks.get(label))
