"""The benchmark's tracer wraps module attributes by name; it must still find them."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_removes():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    from mmselab import cli, sources, tone_channel

    before = (cli.derivative_at_zero, tone_channel.integrate, sources.ScalarSource.sample)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tone_channel.integrate is not before[1]
    finally:
        tracer.remove()
    assert (cli.derivative_at_zero, tone_channel.integrate, sources.ScalarSource.sample) == before
