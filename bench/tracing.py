"""Spans around mmselab's public functions, installed from outside.

Each wrapper replaces a module or class attribute that a layer calls, for
example ``scalar_channel.integrate`` or ``ScalarSource.output_density``,
and records a span: its calls, its time (outermost spans of a name only,
so nested calls of one name are not counted twice), its self time (time
not covered by child spans) and a unit count such as points or draws.
The integrand handed to ``integrate`` is a span of its own, so the self
time of ``integrate`` is the time spent outside the integrand.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from mmselab import cli, ct_verify, numerics, scalar_channel, sources, tone_channel


class Tracer:
    def __init__(self) -> None:
        # span name -> [calls, outer calls, outer seconds, self seconds, outer units];
        # "integrate" and "integrand" spans are shared by every call site
        self.stats: dict = {}
        self._stack: list = []
        self._depth: dict = {}
        self._saved: list = []
        self._riccati_seen: set = set()

    def run(self, name: str, fn, args, kwargs, units: int = 0):
        child_time = [0.0]
        self._stack.append(child_time)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._depth[name] = depth
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            s = self.stats.get(name)
            if s is None:
                s = self.stats[name] = [0, 0, 0.0, 0.0, 0]
            s[0] += 1
            s[3] += dt - child_time[0]
            if depth == 0:
                s[1] += 1
                s[2] += dt
                s[4] += units

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str, units=None) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            n = units(*args, **kwargs) if units else 0
            return self.run(name, orig, args, kwargs, n)

        self._patch(owner, attr, wrapper)

    def _integrate(self, module, site: str) -> None:
        orig = module.integrate
        # per site: [integrals, integrand evaluations, seconds]
        site_stats = self.stats.setdefault("site." + site, [0, 0, 0.0])

        def wrapper(f, *args, **kwargs):
            def integrand(x):
                site_stats[1] += 1
                return self.run("integrand", f, (x,), {})

            site_stats[0] += 1
            t0 = perf_counter()
            try:
                return self.run("integrate", orig, (integrand, *args), kwargs)
            finally:
                site_stats[2] += perf_counter() - t0

        self._patch(module, "integrate", wrapper)

    def _derivative(self, module) -> None:
        orig = module.derivative_at_zero

        def wrapper(g, *args, **kwargs):
            def counted(x):
                self.stats["derivative_at_zero"][4] += 1
                return g(x)

            self.stats.setdefault("derivative_at_zero", [0, 0, 0.0, 0.0, 0])
            return self.run("derivative_at_zero", orig, (counted, *args), kwargs)

        self._patch(module, "derivative_at_zero", wrapper)

    def _kernel(self, attr: str) -> None:
        orig = getattr(sources.ScalarSource, attr)

        def wrapper(src, y, q):
            n = int(np.size(y))
            if src.kind == "custom":
                name = "kernel.custom"
            else:
                name = "kernel.point" if n == 1 else "kernel.bulk"
            return self.run(name, orig, (src, y, q), {}, n)

        self._patch(sources.ScalarSource, attr, wrapper)

    def _riccati_steps(self, setup) -> int:
        # kalman_cmmse and kalman_mmse share one cached recursion per setup
        if setup in self._riccati_seen:
            return 0
        self._riccati_seen.add(setup)
        return setup.n_steps

    def install(self) -> None:
        for module, site in ((scalar_channel, "scalar"), (tone_channel, "tone"), (sources, "sources")):
            self._integrate(module, site)
        for module in (numerics, scalar_channel, cli):
            self._derivative(module)
        self._kernel("output_density")
        self._kernel("cross_density")
        self._span(sources.ScalarSource, "sample", "sample", lambda src, rng, n: n)
        self._span(scalar_channel, "mmse", "mmse")
        self._span(scalar_channel, "nongaussianity", "nongaussianity")
        self._span(scalar_channel, "divergence_derivatives_at_zero", "derivatives")
        points = lambda ch, y: int(np.size(y))  # noqa: E731
        self._span(scalar_channel, "conditional_mean", "conditional_mean", points)
        self._span(ct_verify, "conditional_mean", "conditional_mean", points)
        self._span(tone_channel, "mmse_exact", "mmse_exact")
        self._span(tone_channel, "cmmse_exact", "cmmse_exact")
        self._span(ct_verify, "kalman_cmmse", "riccati", self._riccati_steps)
        self._span(ct_verify, "kalman_mmse", "riccati", self._riccati_steps)
        self._span(ct_verify, "mc_scalar_mmse", "mc", lambda src, q, cfg: cfg.sample_count)
        self._span(cli, "main", "cli.main")

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
