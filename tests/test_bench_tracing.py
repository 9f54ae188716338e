"""The benchmark's tracer wraps module attributes by name; it must still find them."""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_tracer_installs_and_removes():
    tracing = _tracing()
    from mmselab import cli, sources, tone_channel

    before = (cli.derivative_at_zero, tone_channel.integrate, sources.ScalarSource.sample)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tone_channel.integrate is not before[1]
    finally:
        tracer.remove()
    assert (cli.derivative_at_zero, tone_channel.integrate, sources.ScalarSource.sample) == before


@pytest.mark.parametrize("kind", ["mixture", "uniform", "exponential", "custom"])
def test_tracer_sees_point_kernel_calls(kind):
    # the kernel metrics come from the wrapped ScalarSource methods; an
    # integrand that reached a kind's kernel body some other way would zero them
    from mmselab import sources
    from mmselab.scalar_channel import ScalarChannel, mmse

    b = math.sqrt(6.0)
    src = {
        "mixture": sources.rademacher,
        "uniform": sources.uniform,
        "exponential": sources.expstd,
        "custom": lambda: sources.custom_source(lambda x: max(0.0, (1 - abs(x) / b) / b), (-b, b)),
    }[kind]()
    spans = ("kernel.custom",) if kind == "custom" else ("kernel.point", "kernel.bulk")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        mmse(ScalarChannel(src, 1.0))
    finally:
        tracer.remove()
    assert src.kind == kind
    assert sum(tracer.stats.get(name, [0])[0] for name in spans) > 0


def test_tracer_sees_tone_integrals():
    # the tone_channel.radial.* and mmse_exact metrics read these entries;
    # calls go through the module, as the CLI's do, to meet the spans
    from mmselab import tone_channel
    from mmselab.sources import unit_amplitude

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tone_channel.tone_divergence(unit_amplitude(), 1.0)
        tone_channel.mmse_exact(unit_amplitude(), 1.0)
    finally:
        tracer.remove()
    integrals, evals, _ = tracer.stats["site.tone"]
    assert integrals == 2 and evals > 0
    assert tracer.stats["mmse_exact"][0] == 1
