"""Seeded slot-level Monte Carlo simulation of the two-tier protocol.

This is the independent oracle for the analytic model: it plays the
protocol move by move rather than evaluating any formula.  Per slot, a
Poisson number of users transmit; each relay sees an independently
erased copy of that batch and decodes iff exactly one packet survives;
decoding relays forward with probability delta into the next slot, where
the sink decodes iff exactly one forwarded packet survives the downlink.
Relays never buffer: a packet is forwarded immediately or never.

Two sampling routes, identical in law:

* the estimation route (``simulate``) plays the slots in chunks of
  ``_CHUNK``.  It draws each slot's occupancy class by inverse CDF from
  one float64 uniform, then one float32 uniform per (relay, slot),
  compared against nested thresholds p_n >= p_n*delta >=
  p_n*delta*(1-eps_d); that reproduces the joint law of the
  decode/forward/arrival chain with a fifth of the random numbers of
  per-event coins.  Memory is bounded by the chunk, whatever the run
  length;
* the trace route (``simulate_trace``) materializes per-relay survivor
  counts via binomial thinning of the offered batch, so slot-by-slot
  records carry the actual arrival counts.  It shares no sampling code
  with the estimation route and so checks the nested-threshold trick.

Both are deterministic given (seed, stream_id); the bit generator and
the order of its draws are recorded in the returned stats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import integer_arg
from .model import SystemParams, _decode_table

MODE_FULL = "full_system"
MODE_BOUND = "bound_uplink_only"

RNG_ALGORITHM = "philox4x64"

# Slots played per chunk of the estimation route.  Part of the RNG
# layout: changing it changes every estimate at a given seed.
_CHUNK = 1 << 15

# Draw order of the estimation route, per chunk of up to _CHUNK slots:
# one float64 per slot for the occupancy, mapped through the CDF of
# kernels.poisson_table, then for each relay in turn one float32 per slot.
RNG_LAYOUT = f"chunk{_CHUNK}:occupancy-f64-poisson-table,relays-f32xk"
# Draw order of the trace route: Poisson occupancies for the whole run,
# then binomial survivor counts relay by relay, then (full mode only)
# one float64 per (relay, slot) for the forwarding coins.
_TRACE_LAYOUT = "whole-run:occupancy-poisson,relays-binomialxk,relays-f64xk"

_MASK64 = (1 << 64) - 1
_CI_BATCHES = 100
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# The occupancy table stops on each side of the mode where the Poisson
# probability drops below the resolution of a float64 uniform.
_TAIL = 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: system parameters plus execution knobs.

    ``warmup_slots`` must be at least 1 in the full-system mode so the
    first measured slot can receive forwards from its predecessor.  In
    bound mode only the uplink is played and delta/eps_d are ignored.
    The four integer fields are stored as ``int``, seed and stream id in
    0..2^64-1; a float or bool there, or ``params`` not a
    :class:`SystemParams`, is a ValueError.
    """

    params: SystemParams
    n_slots: int
    warmup_slots: int = 1000
    seed: int = 0
    stream_id: int = 0
    mode: str = MODE_FULL

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise ValueError(f"params must be a SystemParams: {self.params!r}")
        if self.mode not in (MODE_FULL, MODE_BOUND):
            raise ValueError(f"unknown mode {self.mode!r}")
        w = 1 if self.mode == MODE_FULL else 0
        for name, lo, hi in (("n_slots", 1, None), ("warmup_slots", w, None),
                             ("seed", 0, _MASK64), ("stream_id", 0, _MASK64)):
            object.__setattr__(
                self, name, integer_arg(name, getattr(self, name), lo, hi))


@dataclass(frozen=True)
class SlotOutcome:
    """Everything that happened in one slot (trace route only).

    ``per_relay_arrivals`` counts unerased uplink packets per relay;
    ``sink_arrivals`` counts downlink packets surviving erasure, which
    originate from the previous slot's forwards.
    """

    n_tx: int
    per_relay_arrivals: tuple[int, ...]
    relays_decoded: tuple[bool, ...]
    relays_forwarding: tuple[bool, ...]
    sink_arrivals: int
    sink_decoded: bool


@dataclass(frozen=True, slots=True)
class SimStats:
    """Estimates and counters from one run.

    ``throughput_estimate`` is delivered_packets / measured_slots; in
    bound mode "delivered" means a slot in which at least one relay
    decoded.  ``ci95_halfwidth`` comes from batch means over the
    measurement window.  Totals count over every simulated slot
    (including warmup) and satisfy
    delivered <= sink arrivals <= forwards <= decodes.
    ``rng_layout`` names the order in which the route drew its random
    numbers (:data:`RNG_LAYOUT` for :func:`simulate`).
    """

    delivered_packets: int
    measured_slots: int
    throughput_estimate: float
    ci95_halfwidth: float
    relay_decode_rate: tuple[float, ...]
    uplink_union_rate: float
    sink_collision_rate: float
    total_decodes: int
    total_forwards: int
    total_sink_arrivals: int
    seed: int
    stream_id: int
    mode: str
    rng_algorithm: str = RNG_ALGORITHM
    rng_layout: str = RNG_LAYOUT


def rng_substream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent reproducible generator for (seed, stream_id).

    The pair forms the 128-bit Philox key, so distinct stream ids are
    distinct counter-based generators rather than offsets of one stream.
    Each must be an integer in 0..2^64-1, else ValueError.
    """
    key = np.array([integer_arg("seed", seed, 0, _MASK64),
                    integer_arg("stream_id", stream_id, 0, _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _occupancy(g: float, eps_u: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table of the Poisson(g) slot occupancy, and the decode
    probability of each occupancy class.

    Class i is the count lo + i of ``_decode_table(g, eps_u, 2^-53)``, so
    ``searchsorted(cdf, u, side="right")`` maps a uniform u to a class;
    the first class takes the omitted lower tail and the last the upper.
    The CDF never decreases and ends at most at 1.
    """
    _, weights, p_dec, _ = _decode_table(g, eps_u, _TAIL)
    return np.minimum(np.cumsum(weights[:-1]), 1.0), np.array(p_dec)


class _BatchMeans:
    """Success counts per batch of the measurement window, fed in order.

    The batches are those ``np.array_split(window, min(100, n))`` cuts,
    so the half-width equals the batch-means one over the whole window.
    """

    def __init__(self, n: int) -> None:
        b = min(_CI_BATCHES, n)
        q, r = divmod(n, b)
        self.sizes = [q + 1] * r + [q] * (b - r)
        self.ends = list(itertools.accumulate(self.sizes))
        self.counts = [0] * b
        self.batch = 0  # the batch being filled
        self.fed = 0  # measured slots counted so far

    def add(self, success: np.ndarray) -> None:
        """Count the next ``success.size`` measured slots."""
        start = 0
        while start < success.size:
            end = self.ends[self.batch]
            take = min(end - self.fed, success.size - start)
            self.counts[self.batch] += int(
                np.count_nonzero(success[start:start + take]))
            start += take
            self.fed += take
            if self.fed == end:
                self.batch += 1

    def ci95(self) -> float:
        """95% half-width from the batch means."""
        b = len(self.counts)
        if b < 2:
            return 0.0
        means = np.array(self.counts) / np.array(self.sizes)
        return _Z95 * float(means.std(ddof=1)) / math.sqrt(b)


def _stats(config: SimConfig, batches: _BatchMeans, decode_hits: np.ndarray,
           union_hits: int, collisions: int, total_decodes: int,
           total_forwards: int, total_sink_arrivals: int,
           rng_layout: str) -> SimStats:
    """SimStats from a run's counters (numpy or Python integers)."""
    n = config.n_slots
    delivered = sum(batches.counts)
    return SimStats(
        delivered_packets=delivered,
        measured_slots=n,
        throughput_estimate=delivered / n,
        ci95_halfwidth=batches.ci95(),
        relay_decode_rate=tuple((decode_hits / n).tolist()),
        uplink_union_rate=int(union_hits) / n,
        sink_collision_rate=int(collisions) / n,
        total_decodes=int(total_decodes),
        total_forwards=int(total_forwards),
        total_sink_arrivals=int(total_sink_arrivals),
        seed=config.seed,
        stream_id=config.stream_id,
        mode=config.mode,
        rng_layout=rng_layout,
    )


def _start(config: SimConfig) -> tuple[SystemParams, int, int, bool,
                                      np.random.Generator]:
    """(params, warm-up slots, all slots, full mode?, generator) of a run;
    ``config`` must be a SimConfig, else ValueError."""
    if not isinstance(config, SimConfig):
        raise ValueError(f"config must be a SimConfig, got {config!r}")
    w = config.warmup_slots
    return (config.params, w, w + config.n_slots, config.mode == MODE_FULL,
            rng_substream(config.seed, config.stream_id))


def simulate(config: SimConfig) -> SimStats:
    """Run the protocol and estimate throughput (estimation route).

    Plays the slots in chunks of ``_CHUNK`` in the draw order named by
    :data:`RNG_LAYOUT`; memory does not grow with ``n_slots``.
    """
    p, w, total_slots, full, rng = _start(config)
    k = p.k

    cdf, p_dec = _occupancy(p.g, p.eps_u)
    tables = [p_dec]
    if full:
        tables += [p_dec * p.delta, p_dec * (p.delta * (1.0 - p.eps_d))]
    tables = [t.astype(np.float32) for t in tables]

    m = min(_CHUNK, total_slots)
    occ = np.empty(m)
    thr = np.empty((len(tables), m), dtype=np.float32)
    u = np.empty(m, dtype=np.float32)
    hit = np.empty(m, dtype=bool)
    union = np.empty(m, dtype=bool)
    # sink[t] counts arrivals in slot t of a chunk of c slots; sink[c]
    # collects the forwards of its last slot, carried into the next chunk.
    sink = np.zeros(m + 1, dtype=np.int32)
    batches = _BatchMeans(config.n_slots)
    decode_hits = np.zeros(k, dtype=np.int64)
    union_hits = collisions = 0
    total_decodes = total_forwards = total_sink_arrivals = 0

    for start in range(0, total_slots, m):
        c = min(m, total_slots - start)
        lo = min(max(w - start, 0), c)  # first measured slot of the chunk
        rng.random(out=occ[:c])
        cls = np.searchsorted(cdf, occ[:c], side="right")
        for tab, row in zip(tables, thr):
            np.take(tab, cls, out=row[:c])
        thr_dec = thr[0, :c]
        uc, hc, unc = u[:c], hit[:c], union[:c]
        unc[:] = False
        for i in range(k):
            rng.random(out=uc, dtype=np.float32)
            np.less(uc, thr_dec, out=hc)
            unc |= hc
            decode_hits[i] += np.count_nonzero(hc[lo:])
            total_decodes += np.count_nonzero(hc)
            if full:
                np.less(uc, thr[1, :c], out=hc)
                total_forwards += np.count_nonzero(hc)
                np.less(uc, thr[2, :c], out=hc)
                sink[1:c + 1] += hc
        union_hits += np.count_nonzero(unc[lo:])
        if full:
            arrivals = sink[:c]
            total_sink_arrivals += arrivals.sum()
            collisions += np.count_nonzero(arrivals[lo:] >= 2)
            success = arrivals[lo:] == 1
            sink[0] = sink[c]
            sink[1:] = 0
        else:
            success = unc[lo:]
        if lo < c:
            batches.add(success)

    return _stats(config, batches, decode_hits, union_hits, collisions,
                  total_decodes, total_forwards, total_sink_arrivals,
                  RNG_LAYOUT)


def simulate_trace(config: SimConfig) -> tuple[SimStats, list[SlotOutcome]]:
    """Run the protocol keeping a full slot-by-slot record (trace route).

    Draws survivor counts explicitly, so the random stream differs from
    :func:`simulate` at equal seeds even though the law is the same.
    Intended for small runs; memory grows with k * total slots.
    """
    p, w, total_slots, full, rng = _start(config)
    k = p.k

    n_tx = rng.poisson(p.g, total_slots)
    # Survivor counts per relay: binomial thinning of the offered batch.
    arrivals = rng.binomial(n_tx, 1.0 - p.eps_u, size=(k, total_slots))
    decoded = arrivals == 1
    sink_arrivals = np.zeros(total_slots, dtype=np.int64)
    if full:
        u = rng.random((k, total_slots))
        forwarding = decoded & (u < p.delta)
        arriving = forwarding & (u < p.delta * (1.0 - p.eps_d))
        # Forwards land in the next slot; slot 0 has no predecessor.
        sink_arrivals[1:] = arriving.sum(axis=0)[:-1]
    else:
        forwarding = np.zeros_like(decoded)
    sink_decoded = sink_arrivals == 1
    union = decoded.any(axis=0)

    batches = _BatchMeans(config.n_slots)
    batches.add((sink_decoded if full else union)[w:])
    stats = _stats(
        config, batches, decoded[:, w:].sum(axis=1), union[w:].sum(),
        (sink_arrivals[w:] >= 2).sum(), decoded.sum(), forwarding.sum(),
        sink_arrivals.sum(), _TRACE_LAYOUT,
    )
    outcomes = [
        SlotOutcome(n, tuple(a), tuple(d), tuple(f), s, sd)
        for n, a, d, f, s, sd in zip(
            n_tx.tolist(), arrivals.T.tolist(), decoded.T.tolist(),
            forwarding.T.tolist(), sink_arrivals.tolist(),
            sink_decoded.tolist(),
        )
    ]
    return stats, outcomes
