"""The benchmark's span tracer still finds and times every network layer."""

import importlib.util
import os
import types

import numpy as np
import pytest

from seishet import attention, layers, metrics, model, numcore, pgm, segy, synthgen, train

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_tracer_records_a_span_for_every_layer(variant):
    modules = types.SimpleNamespace(
        numcore=numcore, layers=layers, attention=attention, model=model,
        train=train, synthgen=synthgen, segy=segy, pgm=pgm, metrics=metrics)
    tracer = _load_tracing().Tracer(modules)
    p = numcore.Prng(5)
    x = p.normal(size=(2, 1, 44, 44)).astype(np.float32)
    target = (p.uniform(0.0, 1.0, size=(2, 44, 44)) > 0.7).astype(np.uint8)
    tracer.install()
    try:
        net = model.build_network(variant, numcore.Prng(4))
        net.loss_and_grads(x, target)
        net.forward(x)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == set()
    recorded = {span[0] for span in tracer.closed()}
    expected = {"layers.%s.%s" % (row[0], kind)
                for row in model.flops_table(net) for kind in ("fwd", "bwd")}
    expected |= {"numcore.gelu.fwd", "numcore.gelu.bwd", "layers.maxpool.fwd",
                 "layers.maxpool.bwd", "layers.loss"}
    if variant == "self_attention":
        expected |= {"attention.rel_attn.fwd", "attention.rel_attn.bwd"}
    assert expected <= recorded, sorted(expected - recorded)
