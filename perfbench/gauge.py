"""Speed gauge: fixed numpy kernels shaped like the work of each stage.

On a shared host the machine's speed drifts: on the reference machine (a
2-vCPU Xeon VM), code bound by the interpreter and by small numpy calls ran
up to about 1.7x slower for seconds to minutes at a time as other tenants
loaded the host, and a whole 30-second run could land in a slow or a fast
spell. The end-to-end times therefore come
*normalised*: each measured interval carries gauge samples taken inside it,
from the kernel shaped like its work, and is rescaled by

    nominal kernel time / mean kernel time in that interval

so it reads as seconds on the reference machine at its nominal speed. A kernel and
the stage it gauges slow down alike (their time ratio stayed within about
±6% while the raw times moved 1.7x), so the rescaled figures keep the
program's own speed and drop most of the machine's drift. The kernels are
the benchmark's own code: a change to mixopt does not move them.

Single-call latencies are gauged per call instead: a one-row kernel call
about as long as a policy query follows every query, and a block's median
and p99 are rescaled by the same statistic of its kernel calls
(``rescale_block``). Interruptions hit both alike, so this also steadies
the p99, which a mean kernel time does not track.

    python3 perfbench/gauge.py     # print each kernel's time quantiles
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# Seconds per kernel call at nominal speed: the fast level, measured in quiet
# spells on a 2-vCPU Xeon with numpy 2.4 and OpenBLAS 0.3 on one thread.
NOMINAL = {"train": 4.3e-3, "score": 3.5e-3, "query": 0.63e-3}
# Microseconds per ``Gauge.call`` at nominal speed: the median and the p99 of
# a block of 1000 calls, on the same machine.
NOMINAL_CALL = {"p50": 25.0, "p99": 44.0}


def _layers(rng, sizes):
    return [(rng.normal(size=(a, b)) / np.sqrt(a), 0.1 * rng.normal(size=b))
            for a, b in zip(sizes[:-1], sizes[1:])]


class Gauge:
    """The three kernels; ``time(kind)`` runs one and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = _layers(rng, (7, 64, 64, 64, 64, 9))
        self.policy = _layers(rng, (1, 32, 32, 8))
        self.batch = rng.uniform(-1.0, 1.0, (1024, 7))
        self.outlet = rng.uniform(-1.0, 1.0, (101, 7))
        self.inlets = rng.uniform(-1.0, 1.0, (202, 7))
        self.kernels = {"train": self._train, "score": self._score, "query": self._query}
        self.state = np.ones((1, 1))

    def time(self, kind: str) -> float:
        t0 = time.perf_counter()
        self.kernels[kind]()
        return time.perf_counter() - t0

    @staticmethod
    def _forward(layers, X):
        h = X
        for W, b in layers[:-1]:
            h = np.tanh(h @ W + b)
        W, b = layers[-1]
        return h @ W + b

    def _train(self):
        """A forward and a reverse pass through the hidden layers, on 1024 rows."""
        h = self.batch @ self.field[0][0]
        acts = []
        for W, b in self.field[1:-1]:
            h = np.tanh(h @ W + b)
            acts.append(h)
        for (W, _), h in zip(reversed(self.field[1:-1]), reversed(acts)):
            g = (1.0 - h * h) @ W.T
            _ = h.T @ g

    def _score(self):
        """Eight scores: outlet and inlet forwards plus the mixing reductions."""
        for _ in range(8):
            c = np.clip(self._forward(self.field, self.outlet)[:, 6], 0.0, 1.0)
            float(1.0 - np.sqrt(np.mean(((c - 0.5) / 0.5) ** 2)))
            float(np.mean(self._forward(self.field, self.inlets)[:, 2]))

    def _query(self):
        """Fifty one-row policy forwards with the action squashing."""
        for _ in range(25):
            self.call()

    def call(self):
        """Two one-row policy forwards with the action squashing: one call
        about as long as one policy query."""
        for _ in range(2):
            out = self._forward(self.policy, self.state)
            mu, sigma = out[:, :4], np.exp(out[:, 4:])
            float(np.clip(mu, -1.0, 1.0)[0, 0] * sigma[0, 0])


def rescale_block(latencies, reference) -> dict:
    """``{"p50": (raw, rescaled), "p99": (raw, rescaled)}`` of a block of call
    latencies, each rescaled by the nominal over the same statistic of the
    ``Gauge.call`` latencies taken between them."""
    out = {}
    for name, q in (("p50", 0.5), ("p99", 0.99)):
        raw = float(np.quantile(latencies, q))
        out[name] = (raw, raw * NOMINAL_CALL[name] / float(np.quantile(reference, q)))
    return out


class Window:
    """Gauge samples taken during one measured interval.

    With no gauge (the traced run) it keeps raw times.
    """

    def __init__(self, gauge: Gauge | None, kind: str):
        self.gauge = gauge
        self.kind = kind
        self.samples: list[float] = []

    def probe(self) -> None:
        if self.gauge is not None:
            self.samples.append(self.gauge.time(self.kind))

    @property
    def spent(self) -> float:
        """Seconds the probes took."""
        return sum(self.samples)

    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return NOMINAL[self.kind] / statistics.fmean(self.samples)


@contextmanager
def probing(module, attr: str, every: int, window: Window):
    """Run ``window.probe()`` after every ``every``-th call of ``module.attr``.

    The one way to take samples inside ``pinn_train.train``, whose loop has
    no caller-side hook; the wrapper is removed on exit.
    """
    original = getattr(module, attr)
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        out = original(*args, **kwargs)
        calls += 1
        if calls % every == 0:
            window.probe()
        return out

    setattr(module, attr, wrapped)
    try:
        yield
    finally:
        setattr(module, attr, original)


def main() -> int:
    gauge = Gauge()
    for kind in NOMINAL:
        t = np.array([gauge.time(kind) for _ in range(400)])
        q10, q50, q90 = np.quantile(t, [0.1, 0.5, 0.9]) * 1e3
        print(f"{kind:6s} p10 {q10:.3f} ms  p50 {q50:.3f} ms  p90 {q90:.3f} ms")
    calls = np.empty(1000)
    for i in range(len(calls)):
        t0 = time.perf_counter()
        gauge.call()
        calls[i] = time.perf_counter() - t0
    p50, p99 = np.quantile(calls, [0.5, 0.99]) * 1e6
    print(f"call   p50 {p50:.1f} us  p99 {p99:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
