"""The benchmark's tracer wraps module attributes by name; it must still find them."""

import sys
from pathlib import Path

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


def test_tracer_sees_point_kernel_calls():
    # the kernel metrics come from the wrapped ScalarSource methods; an
    # integrand that reached the kernels some other way would zero them
    from mmselab.scalar_channel import ScalarChannel, mmse
    from mmselab.sources import rademacher

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        mmse(ScalarChannel(rademacher(), 1.0))
    finally:
        tracer.remove()
    assert tracer.stats.get("kernel.point", [0])[0] + tracer.stats.get("kernel.bulk", [0])[0] > 0
