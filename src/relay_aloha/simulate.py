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
  per-event coins.  It reads those uniforms from the generator's raw
  words, by numpy's own rules, and looks the class up in guide tables.
  Memory is bounded by the chunk, whatever the run length;
* the trace route (``simulate_trace``) materializes per-relay survivor
  counts via binomial thinning of the offered batch, so slot-by-slot
  records carry the actual arrival counts.  It shares no sampling code
  with the estimation route and so checks the nested-threshold trick.

Both are deterministic given (seed, stream_id); the bit generator and
the order of its draws are recorded in the returned stats.  Both count
into one tally, in slot order, which builds the stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .kernels import integer_arg
from .model import SystemParams, _decode_table

if TYPE_CHECKING:  # annotations only: numpy loads at the first array
    import numpy as np

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
# Top bits of a raw occupancy word that pick its bucket in the guide
# tables of the occupancy draw (see _Thresholds), and the decode entry
# of a bucket whose words must search their class; every true threshold
# is at most 2^24.
_BITS = 12
_IN_STEP = 0xFFFFFFFF


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: system parameters plus execution knobs.

    ``warmup_slots`` must be at least 1 in the full-system mode so the
    first measured slot can receive forwards from its predecessor.  In
    bound mode only the uplink is played and delta/eps_d are ignored.
    The four integer fields are stored as ``int``, n_slots and
    warmup_slots at most 2^63-1, seed and stream id in 0..2^64-1; a
    float or bool there, or ``params`` not a :class:`SystemParams`, is a
    ValueError.
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
        # _Tally keeps batch ends as int64; warmup_slots shares the limit
        for name, lo, hi in (("n_slots", 1, _MASK64 >> 1),
                             ("warmup_slots", w, _MASK64 >> 1),
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
    decoded.  ``ci95_halfwidth`` is the normal-approximation half-width
    of the mean of the success rates of the min(100, measured_slots)
    batches that ``np.array_split`` cuts from the measurement window (0
    with one batch).  Totals count over every simulated slot
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
    import numpy as np
    key = np.array([integer_arg("seed", seed, 0, _MASK64),
                    integer_arg("stream_id", stream_id, 0, _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Tally:
    """The counters of one run, filled in slot order by either route, and
    the :class:`SimStats` built from them.

    ``measure`` takes the measurement window's per-slot successes in
    pieces and keeps the running success count at each end of the
    batches that ``np.array_split(window, min(100, n))`` cuts, so the
    half-width equals the batch-means one over the whole window.  A
    piece costs one ``flatnonzero`` and two ``searchsorted`` calls,
    however many batches it holds; an integer ``cumsum`` of a
    2^15-slot chunk cost 3 to 5 times the ``flatnonzero``.
    """

    def __init__(self, config: SimConfig) -> None:
        import numpy as np
        if not isinstance(config, SimConfig):
            raise ValueError(f"config must be a SimConfig, got {config!r}")
        self.config = config
        n = config.n_slots
        b = min(_CI_BATCHES, n)
        q, r = divmod(n, b)
        i = np.arange(1, b + 1)
        self.ends = i * q + np.minimum(i, r)  # the first r batches hold q + 1
        self.at_ends = np.zeros(b, dtype=np.int64)
        self.measured = self.delivered = 0
        self.decode_hits = np.zeros(config.params.k, dtype=np.int64)
        self.union_hits = self.collisions = 0
        self.decodes = self.forwards = self.sink_arrivals = 0

    def measure(self, success: np.ndarray) -> None:
        """Count the next ``success.size`` measured slots."""
        import numpy as np
        hits = np.flatnonzero(success)
        lo = self.measured
        self.measured += success.size
        # the batch ends inside this piece, and the successes before each
        i, j = np.searchsorted(self.ends, (lo, self.measured), side="right")
        self.at_ends[i:j] = self.delivered + np.searchsorted(
            hits, self.ends[i:j] - lo)
        self.delivered += hits.size

    def stats(self, rng_layout: str) -> SimStats:
        """The run's SimStats; ``rng_layout`` names the route's draws."""
        cfg = self.config
        n = cfg.n_slots
        counts, sizes = self.at_ends.copy(), self.ends.copy()
        counts[1:] -= self.at_ends[:-1]
        sizes[1:] -= self.ends[:-1]
        means = counts / sizes
        return SimStats(
            delivered_packets=self.delivered,
            measured_slots=n,
            throughput_estimate=self.delivered / n,
            ci95_halfwidth=(_Z95 * float(means.std(ddof=1))
                            / math.sqrt(means.size) if means.size > 1
                            else 0.0),
            relay_decode_rate=tuple((self.decode_hits / n).tolist()),
            uplink_union_rate=int(self.union_hits) / n,
            sink_collision_rate=int(self.collisions) / n,
            total_decodes=int(self.decodes),
            total_forwards=int(self.forwards),
            total_sink_arrivals=int(self.sink_arrivals),
            seed=cfg.seed,
            stream_id=cfg.stream_id,
            mode=cfg.mode,
            rng_layout=rng_layout,
        )


class _Thresholds:
    """Each slot's relay thresholds, from its raw occupancy word.

    Occupancy class i is the count lo + i of ``_decode_table(g, eps_u,
    _TAIL)``, the first and last classes taking the tails.  ``cdf`` never
    decreases and ends at most at 1: ``searchsorted(cdf, u, side="right")``
    is the class of a uniform u.  ``tables[r, i]`` is test r's threshold
    in class i: r = 0 decodes (p_i) and, in the full mode, r = 1 forwards
    (p_i delta) and r = 2 arrives (p_i delta (1 - eps_d)), each float32
    threshold t as ceil(t 2^24), the number of float32 uniforms below it.

    ``buckets`` are guide tables (Chen & Asau, 1974).  Bucket b holds the
    words whose top ``_BITS`` bits read b, the uniforms u in
    [b, b + 1) 2^-_BITS, and its column is that of the class of its
    lowest u.  Where a CDF value lies strictly inside a bucket, the class
    of a u there may differ: its decode entry is ``_IN_STEP`` and its
    words take ``searchsorted`` on their own u.  Built in O(classes +
    2^_BITS) steps; calls reuse flat scratch for up to ``size`` words, so
    each call's rows are unstrided (``take`` copies a strided ``out``).
    """

    def __init__(self, p: SystemParams, full: bool, size: int) -> None:
        import numpy as np
        _, weights, p_dec, _ = _decode_table(p.g, p.eps_u, _TAIL)
        self.cdf = np.minimum(np.cumsum(weights[:-1]), 1.0)
        scale = (1.0, p.delta, p.delta * (1.0 - p.eps_d)) if full else (1.0,)
        t = np.multiply.outer(scale, p_dec).astype(np.float32)
        t *= np.float32(1 << 24)  # exact: a power-of-two scale
        self.tables = np.ceil(t, out=t).astype(np.uint32)
        x = self.cdf * (1 << _BITS)  # exact too
        # class i starts at the bucket of the ceiling of its lower CDF value
        edges = np.empty(x.size + 2)
        edges[0], edges[-1] = 0, 1 << _BITS
        up = np.ceil(x, out=edges[1:-1])
        self.buckets = self.tables.repeat(
            (edges[1:] - edges[:-1]).astype(np.intp), axis=1)
        self.buckets[0, up[up != x].astype(np.intp) - 1] = _IN_STEP
        self._out = np.empty(len(scale) * size, dtype=np.uint32)
        self._bucket = np.empty(size, dtype=np.uint64)
        self._in_step = np.empty(size, dtype=bool)

    def __call__(self, words: np.ndarray) -> np.ndarray:
        """Test r's thresholds for ``words`` in row r, until the next call."""
        import numpy as np
        out = self._out[:words.size * len(self.tables)].reshape(-1, words.size)
        bucket = self._bucket[:words.size]
        np.right_shift(words, 64 - _BITS, out=bucket)
        ix = bucket.view(np.intp)  # below 2^_BITS: the same bits
        self.buckets.take(ix, axis=1, out=out, mode="clip")
        (steps,) = np.equal(out[0], _IN_STEP,
                            out=self._in_step[:words.size]).nonzero()
        if steps.size:
            u = (words[steps] >> 11) * 2.0**-53  # numpy's float64 rule
            out[:, steps] = self.tables[
                :, np.searchsorted(self.cdf, u, side="right")]
        return out


def simulate(config: SimConfig) -> SimStats:
    """Run the protocol and estimate throughput (estimation route).

    Plays the slots in chunks of ``_CHUNK`` in the draw order named by
    :data:`RNG_LAYOUT`; memory does not grow with ``n_slots``.

    It reads the generator's raw 64-bit words and applies numpy's own
    rules, so it draws exactly what ``rng.random`` would: a float64
    uniform is ``(w >> 11) 2^-53`` and a float32 one ``(h >> 8) 2^-24``
    of the next 32-bit half h, low half first.  A relay test ``u < t``
    for a float32 threshold t is then the integer test
    ``(h >> 8) < ceil(t 2^24)``, and the occupancy class is looked up by
    :class:`_Thresholds`.
    """
    import numpy as np
    tally = _Tally(config)
    p, w, k = config.params, config.warmup_slots, config.params.k
    total_slots, full = w + config.n_slots, config.mode == MODE_FULL
    raw = rng_substream(config.seed, config.stream_id).bit_generator.random_raw

    m = min(_CHUNK, total_slots)
    thresholds = _Thresholds(p, full, m)
    hit = np.empty(m, dtype=bool)
    union = np.empty(m, dtype=bool)
    # sink[t] counts arrivals in slot t of a chunk of c slots; sink[c]
    # collects the forwards of its last slot, carried into the next chunk.
    # At most k arrive in a slot: the narrowest unsigned type holds them.
    sink = np.zeros(m + 1, dtype=np.min_scalar_type(k))

    for start in range(0, total_slots, m):
        c = min(m, total_slots - start)
        lo = min(max(w - start, 0), c)  # first measured slot of the chunk
        thr, hc, unc = thresholds(raw(c)), hit[:c], union[:c]
        unc[:] = False
        for i in range(0, k, 2):
            # relays i and i + 1 take the next 2c halves, low half first;
            # a lone last relay takes c of them
            h = raw(c if i + 1 < k else (c + 1) // 2)
            h = h.astype("<u8", copy=False).view("<u4")  # on any host
            np.right_shift(h, 8, out=h)
            for j, uc in enumerate((h[:c], h[c:2 * c])[:k - i], i):
                np.less(uc, thr[0], out=hc)
                unc |= hc
                n_hits = np.count_nonzero(hc)
                tally.decodes += n_hits
                tally.decode_hits[j] += (np.count_nonzero(hc[lo:]) if lo
                                         else n_hits)
                if full:
                    np.less(uc, thr[1], out=hc)
                    tally.forwards += np.count_nonzero(hc)
                    np.less(uc, thr[2], out=hc)
                    sink[1:c + 1] += hc.view(np.uint8)
        tally.union_hits += np.count_nonzero(unc[lo:])
        if full:
            arrivals = sink[:c]
            tally.sink_arrivals += int(arrivals.sum())
            tally.collisions += np.count_nonzero(arrivals[lo:] >= 2)
            success = arrivals[lo:] == 1
            sink[0] = sink[c]
            sink[1:] = 0
        else:
            success = unc[lo:]
        tally.measure(success)
    return tally.stats(RNG_LAYOUT)


def simulate_trace(config: SimConfig) -> tuple[SimStats, list[SlotOutcome]]:
    """Run the protocol keeping a full slot-by-slot record (trace route).

    Draws survivor counts explicitly, so the random stream differs from
    :func:`simulate` at equal seeds even though the law is the same.
    Intended for small runs; memory grows with k * total slots.
    """
    import numpy as np
    tally = _Tally(config)
    p, w, k = config.params, config.warmup_slots, config.params.k
    total_slots, full = w + config.n_slots, config.mode == MODE_FULL
    rng = rng_substream(config.seed, config.stream_id)

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

    tally.measure((sink_decoded if full else union)[w:])
    tally.decode_hits += decoded[:, w:].sum(axis=1)
    tally.union_hits += union[w:].sum()
    tally.collisions += (sink_arrivals[w:] >= 2).sum()
    tally.decodes += decoded.sum()
    tally.forwards += forwarding.sum()
    tally.sink_arrivals += sink_arrivals.sum()
    outcomes = [
        SlotOutcome(n, tuple(a), tuple(d), tuple(f), s, sd)
        for n, a, d, f, s, sd in zip(
            n_tx.tolist(), arrivals.T.tolist(), decoded.T.tolist(),
            forwarding.T.tolist(), sink_arrivals.tolist(),
            sink_decoded.tolist(),
        )
    ]
    return tally.stats(_TRACE_LAYOUT), outcomes
