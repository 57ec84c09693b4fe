import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from relay_aloha import (
    MODE_BOUND,
    MODE_FULL,
    RNG_ALGORITHM,
    RNG_LAYOUT,
    SimConfig,
    SimStats,
    SystemParams,
    bound_series,
    peak_load,
    rng_substream,
    simulate,
    simulate_trace,
    throughput,
    throughput_sa,
    throughput_series,
)
from relay_aloha.kernels import poisson_table
from relay_aloha.model import _decode_table
from relay_aloha.simulate import (
    _BITS, _CHUNK, _TAIL, _TRACE_LAYOUT, _Z95, _Tally, _Thresholds,
    _occupancy,
)


def within_ci(estimate, target, halfwidth, sigmas=3):
    return abs(estimate - target) <= sigmas * halfwidth


class TestSubstreams:
    def test_same_key_bit_identical(self):
        a = rng_substream(42, 7).random(1000)
        b = rng_substream(42, 7).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_substream(42, 0).random(1000)
        b = rng_substream(42, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_cross_stream_correlation_smoke(self):
        n = 1_000_000
        a = rng_substream(9, 0).random(n)
        b = rng_substream(9, 1).random(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
        assert abs(np.corrcoef(a[:-1], a[1:])[0, 1]) < 0.01

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rng_substream(-1, 0)
        with pytest.raises(ValueError):
            rng_substream(0, 1 << 64)


class TestSimulateBasics:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(
            params=SystemParams(1.4, 2, 0.3, 0.3, 0.8),
            n_slots=50_000,
            seed=11,
        )
        assert simulate(cfg) == simulate(cfg)

    def test_different_seeds_differ(self):
        p = SystemParams(1.4, 2, 0.3, 0.3, 0.8)
        a = simulate(SimConfig(params=p, n_slots=50_000, seed=1))
        b = simulate(SimConfig(params=p, n_slots=50_000, seed=2))
        assert a.delivered_packets != b.delivered_packets

    def test_never_forwarding_delivers_nothing(self):
        cfg = SimConfig(
            params=SystemParams(2.0, 3, 0.2, 0.2, 0.0),
            n_slots=20_000,
            seed=5,
        )
        st = simulate(cfg)
        assert st.delivered_packets == 0
        assert st.total_forwards == 0

    def test_classical_slotted_aloha(self):
        cfg = SimConfig(
            params=SystemParams(1.0, 1, 0.0, 0.0, 1.0),
            n_slots=200_000,
            seed=3,
        )
        st = simulate(cfg)
        assert within_ci(st.throughput_estimate, math.exp(-1),
                         st.ci95_halfwidth)

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(peak_load(0.3), 2, 0.3, 0.3, 1.0),
            SystemParams(1.5, 3, 0.3, 0.2, 0.7),
        ],
    )
    def test_matches_analytic_model(self, params):
        st = simulate(SimConfig(params=params, n_slots=400_000, seed=17))
        assert within_ci(st.throughput_estimate, throughput(params).value,
                         st.ci95_halfwidth)

    def test_estimate_is_deliveries_per_slot(self):
        cfg = SimConfig(
            params=SystemParams(1.0, 2, 0.3, 0.1, 0.9),
            n_slots=30_000,
            seed=23,
        )
        st = simulate(cfg)
        assert st.throughput_estimate == st.delivered_packets / st.measured_slots
        assert st.rng_algorithm == RNG_ALGORITHM

    def test_relay_decode_rates_match_single_link_rate(self):
        p = SystemParams(1.7, 4, 0.4, 0.2, 0.6)
        st = simulate(SimConfig(params=p, n_slots=400_000, seed=29))
        target = throughput_sa(p.g, p.eps_u).value
        # binomial CI for each relay's own decode counter
        hw = 3 * math.sqrt(target * (1 - target) / st.measured_slots)
        for rate in st.relay_decode_rate:
            assert abs(rate - target) <= hw

    def test_warmup_choice_does_not_move_the_estimate(self):
        p = SystemParams(1.4, 3, 0.3, 0.3, 0.7)
        a = simulate(SimConfig(params=p, n_slots=300_000, warmup_slots=1,
                               seed=31, stream_id=0))
        b = simulate(SimConfig(params=p, n_slots=300_000, warmup_slots=100,
                               seed=31, stream_id=1))
        combined = math.hypot(a.ci95_halfwidth, b.ci95_halfwidth)
        assert abs(a.throughput_estimate - b.throughput_estimate) <= 3 * combined

    def test_tiny_run_is_valid(self):
        cfg = SimConfig(
            params=SystemParams(1.0, 1, 0.0, 0.0, 1.0), n_slots=1, seed=0
        )
        st = simulate(cfg)
        assert st.measured_slots == 1
        assert st.ci95_halfwidth == 0.0

    def test_config_validation(self):
        p = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SimConfig(params=p, n_slots=0)
        with pytest.raises(ValueError, match="warmup"):
            SimConfig(params=p, n_slots=10, warmup_slots=0)
        with pytest.raises(ValueError):
            SimConfig(params=p, n_slots=10, mode="nope")
        with pytest.raises(ValueError):
            SimConfig(params=p, n_slots=10, seed=-1)
        with pytest.raises(ValueError,
                           match=f"warmup_slots must be in 0..{2**63 - 1}"):
            SimConfig(params=p, n_slots=10, warmup_slots=-1, mode=MODE_BOUND)
        for stream_id in (-1, 1 << 64):
            with pytest.raises(ValueError, match="stream_id must be in"):
                SimConfig(params=p, n_slots=10, stream_id=stream_id)

    def test_n_slots_fits_the_int64_batch_ends(self):
        # past 2^63 - 1 the batch ends would wrap (2^63 read as -2^63)
        p = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="n_slots must be in 1.."):
            SimConfig(params=p, n_slots=2**63)
        tally = _Tally(SimConfig(params=p, n_slots=2**63 - 1))
        assert tally.ends.dtype == np.int64
        assert int(tally.ends[-1]) == 2**63 - 1

    @pytest.mark.parametrize("mode,lo", [(MODE_FULL, 1), (MODE_BOUND, 0)])
    def test_warmup_slots_is_bounded_as_n_slots(self, mode, lo):
        p = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=f"warmup_slots must be in "
                                             f"{lo}..{2**63 - 1}, got"):
            SimConfig(params=p, n_slots=10, warmup_slots=2**63, mode=mode)
        assert SimConfig(params=p, n_slots=10, warmup_slots=2**63 - 1,
                         mode=mode).warmup_slots == 2**63 - 1

    @pytest.mark.parametrize(
        "field", ["n_slots", "warmup_slots", "seed", "stream_id"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "3", None])
    def test_integer_fields_reject_non_integers(self, field, value):
        p = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
        args = {"n_slots": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(params=p, **args)

    def test_integer_fields_become_int(self):
        p = SystemParams(1.0, 2, 0.3, 0.3, 1.0)
        cfg = SimConfig(params=p, n_slots=np.int64(500),
                        warmup_slots=np.int32(7), seed=np.uint64(3),
                        stream_id=np.int16(2))
        assert [type(getattr(cfg, f)) for f in
                ("n_slots", "warmup_slots", "seed", "stream_id")] == [int] * 4
        st = simulate(cfg)
        assert st == simulate(SimConfig(params=p, n_slots=500,
                                        warmup_slots=7, seed=3, stream_id=2))
        assert type(st.measured_slots) is int and st.measured_slots == 500


class TestTrace:
    def _trace(self, **kw):
        cfg = SimConfig(
            params=SystemParams(
                kw.pop("g", 1.8), kw.pop("k", 3), kw.pop("eps_u", 0.3),
                kw.pop("eps_d", 0.25), kw.pop("delta", 0.7),
            ),
            n_slots=kw.pop("n_slots", 4000),
            warmup_slots=kw.pop("warmup_slots", 50),
            seed=kw.pop("seed", 13),
        )
        return cfg, *simulate_trace(cfg)

    def test_slot_invariants(self):
        cfg, stats, outcomes = self._trace()
        k = cfg.params.k
        for slot in outcomes:
            assert len(slot.per_relay_arrivals) == k
            for i in range(k):
                assert slot.relays_decoded[i] == (
                    slot.per_relay_arrivals[i] == 1
                )
                if slot.relays_forwarding[i]:
                    assert slot.relays_decoded[i]
            assert slot.sink_decoded == (slot.sink_arrivals == 1)

    def test_forwarding_delay_is_one_slot(self):
        _, _, outcomes = self._trace()
        for prev, cur in zip(outcomes, outcomes[1:]):
            assert cur.sink_arrivals <= sum(prev.relays_forwarding)
        assert outcomes[0].sink_arrivals == 0

    def test_conservation_chain(self):
        _, stats, outcomes = self._trace()
        assert (
            stats.delivered_packets
            <= stats.total_sink_arrivals
            <= stats.total_forwards
            <= stats.total_decodes
        )
        assert stats.total_decodes == sum(
            sum(s.relays_decoded) for s in outcomes
        )
        assert stats.total_forwards == sum(
            sum(s.relays_forwarding) for s in outcomes
        )
        assert stats.total_sink_arrivals == sum(
            s.sink_arrivals for s in outcomes
        )

    def test_stats_derive_from_the_trace(self):
        cfg, stats, outcomes = self._trace()
        w = cfg.warmup_slots
        window = outcomes[w:]
        assert stats.delivered_packets == sum(s.sink_decoded for s in window)
        assert stats.sink_collision_rate == pytest.approx(
            sum(s.sink_arrivals >= 2 for s in window) / len(window)
        )

    def test_trace_route_agrees_with_estimation_route(self):
        p = SystemParams(1.4, 2, 0.3, 0.3, 1.0)
        fast = simulate(SimConfig(params=p, n_slots=60_000, seed=7))
        slow, _ = simulate_trace(
            SimConfig(params=p, n_slots=60_000, seed=7, stream_id=1)
        )
        combined = math.hypot(fast.ci95_halfwidth, slow.ci95_halfwidth)
        assert abs(
            fast.throughput_estimate - slow.throughput_estimate
        ) <= 3 * combined

    def test_deterministic(self):
        cfg = SimConfig(
            params=SystemParams(1.0, 2, 0.2, 0.2, 0.5), n_slots=500, seed=2
        )
        s1, t1 = simulate_trace(cfg)
        s2, t2 = simulate_trace(cfg)
        assert s1 == s2
        assert t1 == t2

    def test_records_hold_python_scalars(self):
        _, stats, outcomes = self._trace(n_slots=300)
        assert stats.rng_layout != RNG_LAYOUT  # its own draw order
        for slot in outcomes:
            assert type(slot.n_tx) is int
            assert type(slot.sink_arrivals) is int
            assert type(slot.sink_decoded) is bool
            assert all(type(a) is int for a in slot.per_relay_arrivals)
            assert all(type(d) is bool for d in slot.relays_decoded)
            assert all(type(f) is bool for f in slot.relays_forwarding)


class TestBoundMode:
    def _cfg(self, delta, eps_d, **kw):
        return SimConfig(
            params=SystemParams(1.5, kw.pop("k", 3), kw.pop("eps_u", 0.4),
                                eps_d, delta),
            n_slots=kw.pop("n_slots", 100_000),
            warmup_slots=kw.pop("warmup_slots", 0),
            seed=kw.pop("seed", 19),
            mode=MODE_BOUND,
        )

    def test_ignores_downlink_parameters(self):
        a = simulate(self._cfg(delta=1.0, eps_d=0.0))
        b = simulate(self._cfg(delta=0.2, eps_d=0.9))
        assert a == b

    def test_matches_bound_series(self):
        st = simulate(self._cfg(delta=1.0, eps_d=0.0, n_slots=400_000))
        target = bound_series(1.5, 3, 0.4).value
        assert within_ci(st.throughput_estimate, target, st.ci95_halfwidth)
        assert st.uplink_union_rate == st.throughput_estimate

    def test_zero_warmup_allowed(self):
        st = simulate(self._cfg(delta=1.0, eps_d=0.0, n_slots=100))
        assert st.measured_slots == 100

    def test_no_downlink_counters(self):
        st = simulate(self._cfg(delta=1.0, eps_d=0.0, n_slots=1000))
        assert st.total_forwards == 0
        assert st.total_sink_arrivals == 0
        assert st.sink_collision_rate == 0.0

    def test_trace_route(self):
        cfg = self._cfg(delta=1.0, eps_d=0.0, n_slots=2000, warmup_slots=5)
        st, outcomes = simulate_trace(cfg)
        assert st.total_forwards == st.total_sink_arrivals == 0
        assert not any(o.sink_arrivals or any(o.relays_forwarding)
                       for o in outcomes)
        union_slots = sum(any(o.relays_decoded) for o in outcomes[5:])
        assert 0 < st.delivered_packets == union_slots
        assert st.uplink_union_rate == st.throughput_estimate


class TestStatsShape:
    def test_frozen_and_typed(self):
        p = SystemParams(1.0, 2, 0.1, 0.1, 1.0)
        st = simulate(SimConfig(params=p, n_slots=1000, seed=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.delivered_packets = 0
        assert len(st.relay_decode_rate) == p.k
        assert 0.0 <= st.uplink_union_rate <= 1.0
        assert 0.0 <= st.sink_collision_rate <= 1.0
        assert all(0.0 <= r <= 1.0 for r in st.relay_decode_rate)
        assert 0.0 <= st.throughput_estimate <= 1.0

    @pytest.mark.parametrize("run", [simulate, lambda c: simulate_trace(c)[0]])
    def test_python_scalars(self, run):
        st = run(SimConfig(params=SystemParams(1.0, 3, 0.1, 0.1, 1.0),
                           n_slots=1000, seed=0))
        for f in dataclasses.fields(st):
            v = getattr(st, f.name)
            if f.name == "relay_decode_rate":
                assert all(type(r) is float for r in v)
            else:
                assert type(v) is {"int": int, "float": float,
                                   "str": str}[f.type], f.name


def replay(cfg):
    """SimStats of ``simulate(cfg)`` rebuilt from whole-run arrays.

    Draws the same numbers in the same order (:data:`RNG_LAYOUT`), but
    keeps every slot and reduces at the end, as a single-chunk simulator
    would; the counters must match the streamed ones exactly.
    """
    p = cfg.params
    total = cfg.warmup_slots + cfg.n_slots
    w = cfg.warmup_slots
    full = cfg.mode != MODE_BOUND
    rng = rng_substream(cfg.seed, cfg.stream_id)
    cdf, p_dec = _occupancy(p.g, p.eps_u)
    occ, relay_u = [], []
    for start in range(0, total, _CHUNK):
        c = min(_CHUNK, total - start)
        occ.append(np.searchsorted(cdf, rng.random(c), side="right"))
        relay_u.append([rng.random(c, dtype=np.float32) for _ in range(p.k)])
    pn = p_dec[np.concatenate(occ)]
    u = np.hstack([np.stack(us) for us in relay_u])
    decoded = u < pn.astype(np.float32)
    forwards = u < (pn * p.delta).astype(np.float32)
    lands = u < (pn * (p.delta * (1.0 - p.eps_d))).astype(np.float32)
    union = decoded.any(axis=0)
    sink = np.zeros(total, dtype=np.int64)
    sink[1:] = lands.sum(axis=0)[:-1]
    window = (sink == 1 if full else union)[w:]
    means = [c.mean() for c in np.array_split(window.astype(np.float64),
                                               min(100, cfg.n_slots))]
    n = cfg.n_slots
    return dict(
        delivered_packets=int(window.sum()),
        ci95_halfwidth=(1.959963984540054 * float(np.std(means, ddof=1))
                        / math.sqrt(len(means))) if len(means) > 1 else 0.0,
        relay_decode_rate=tuple((decoded[:, w:].sum(axis=1) / n).tolist()),
        uplink_union_rate=int(union[w:].sum()) / n,
        sink_collision_rate=int((sink[w:] >= 2).sum()) / n if full else 0.0,
        total_decodes=int(decoded.sum()),
        total_forwards=int(forwards.sum()) if full else 0,
        total_sink_arrivals=int(sink.sum()) if full else 0,
    )


REPLAY_PARAMS = SystemParams(1.7, 3, 0.3, 0.2, 0.6)


class TestStreaming:
    @pytest.mark.parametrize("mode", ["full_system", MODE_BOUND])
    @pytest.mark.parametrize("warmup, n_slots, params", [
        # window starts in chunk 0
        pytest.param(1, 2 * _CHUNK - 1, REPLAY_PARAMS, id="1-65535"),
        # warmup ends in chunk 2
        pytest.param(2 * _CHUNK + 777, _CHUNK + 4321, REPLAY_PARAMS,
                     id="66313-37089"),
        pytest.param(5, 37, REPLAY_PARAMS, id="5-37"),  # one short chunk
        # a batch ends with chunk 0
        pytest.param(368, 40_000, REPLAY_PARAMS, id="368-40000"),
        # eps_u = 0: a lone packet always decodes, a threshold of exactly
        # 2^24 (and with delta = 1, eps_d = 0, so do forwards and
        # arrivals); odd chunk tails split a relay pair's words
        pytest.param(3, _CHUNK + 1000, SystemParams(1.3, 1, 0.0, 0.2, 0.6),
                     id="k1-eps_u0"),
        pytest.param(2, 2 * _CHUNK + 7, SystemParams(0.9, 2, 0.0, 0.0, 1.0),
                     id="k2-eps_u0-delta1"),
        pytest.param(4, 1001, SystemParams(2.0, 8, 0.0, 0.3, 0.5),
                     id="k8-eps_u0"),
        # g = 0: one class and no CDF step
        pytest.param(6, _CHUNK + 3, SystemParams(0.0, 8, 0.3, 0.3, 0.5),
                     id="k8-g0"),
        pytest.param(1, 99, SystemParams(0.0, 1, 0.0, 0.0, 1.0),
                     id="k1-g0-eps_u0"),
    ])
    def test_matches_whole_run_replay(self, mode, warmup, n_slots, params):
        cfg = SimConfig(params=params, n_slots=n_slots, warmup_slots=warmup,
                        seed=41, stream_id=3, mode=mode)
        st = simulate(cfg)
        for name, want in replay(cfg).items():
            assert getattr(st, name) == want, name

    def test_sink_arrivals_carry_across_chunks(self):
        # With a lossless downlink every forward reaches the sink in the
        # next slot; only the last slot's forwards (at most k) are never
        # counted.  A carry lost at any of the ten chunk boundaries would
        # drop about k/e forwards.
        k = 4
        st = simulate(SimConfig(
            params=SystemParams(1.25, k, 0.2, 0.0, 1.0),
            n_slots=10 * _CHUNK + 123, seed=43))
        assert 0 <= st.total_forwards - st.total_sink_arrivals <= k

    @pytest.mark.parametrize("mode", ["full_system", MODE_BOUND])
    def test_warmup_ending_inside_a_later_chunk(self, mode):
        n_slots = 2 * _CHUNK + 4321
        assert n_slots % 100 and n_slots % _CHUNK
        st = simulate(SimConfig(
            params=SystemParams(1.4, 3, 0.3, 0.3, 0.8), n_slots=n_slots,
            warmup_slots=_CHUNK + 1234, seed=47, mode=mode))
        assert st.measured_slots == n_slots
        if mode == MODE_BOUND:
            assert st.total_forwards == st.total_sink_arrivals == 0
            assert st.uplink_union_rate == st.throughput_estimate
        else:
            assert (0 <= st.delivered_packets <= st.total_sink_arrivals
                    <= st.total_forwards <= st.total_decodes)

    def test_batch_sums_equal_array_split_means(self):
        # the tally's batch counts, fed in pieces of every kind
        rng = np.random.default_rng(5)
        params = SystemParams(1.0, 1, 0.0, 0.0, 1.0)
        for n in (1, 2, 99, 100, 101, 1234, 5000):
            x = rng.random(n) < 0.3
            split = np.array_split(x.astype(np.float64), min(100, n))
            means = [b.mean() for b in split]
            want_ci = (_Z95 * float(np.std(means, ddof=1))
                       / math.sqrt(len(means)) if len(means) > 1 else 0.0)
            ends = np.cumsum([b.size for b in split])
            size = int(ends[0])
            for name, cuts in {
                "random": rng.integers(0, n + 1, size=rng.integers(0, 6)),
                "shorter than a batch": np.arange(0, n, max(size // 3, 1)),
                "longer than a batch": np.arange(0, n, 3 * size + 1),
                "on batch ends": ends,
                "next to batch ends": np.r_[ends - 1, ends + 1],
            }.items():
                tally = _Tally(SimConfig(params=params, n_slots=n))
                for piece in np.split(x, np.sort(np.clip(cuts, 0, n))):
                    tally.measure(piece)  # empty pieces too
                counts = np.diff(tally.at_ends, prepend=0)
                sizes = np.diff(tally.ends, prepend=0)
                assert np.array_equal(counts / sizes, means), (n, name)
                st = tally.stats(RNG_LAYOUT)
                assert st.delivered_packets == int(x.sum()), (n, name)
                assert st.ci95_halfwidth == want_ci, (n, name)

    def test_stats_pinned_at_a_fixed_seed(self):
        # Both routes' SimStats at one seed, as first recorded.  A change
        # to the draw order or to the counting that moves these values
        # must rename RNG_LAYOUT (or the trace route's layout).
        msg = "SimStats moved at a fixed seed: rename the RNG layout"
        p = SystemParams(1.7, 3, 0.3, 0.2, 0.6)
        assert simulate(SimConfig(params=p, n_slots=40_000, warmup_slots=368,
                                  seed=41, stream_id=3)) == SimStats(
            delivered_packets=11283, measured_slots=40000,
            throughput_estimate=0.282075,
            ci95_halfwidth=0.004531727089416026,
            relay_decode_rate=(0.3601, 0.3629, 0.36345),
            uplink_union_rate=0.59975, sink_collision_rate=0.112525,
            total_decodes=43854, total_forwards=26354,
            total_sink_arrivals=21054, seed=41, stream_id=3,
            mode=MODE_FULL, rng_algorithm="philox4x64",
            rng_layout="chunk32768:occupancy-f64-poisson-table,relays-f32xk",
        ), msg
        p = SystemParams(1.8, 3, 0.3, 0.25, 0.7)
        assert simulate_trace(SimConfig(params=p, n_slots=4000,
                                        warmup_slots=50, seed=13))[0] == (
            SimStats(
                delivered_packets=1131, measured_slots=4000,
                throughput_estimate=0.28275,
                ci95_halfwidth=0.015830791523879794,
                relay_decode_rate=(0.35725, 0.367, 0.352),
                uplink_union_rate=0.59375, sink_collision_rate=0.12775,
                total_decodes=4369, total_forwards=3052,
                total_sink_arrivals=2248, seed=13, stream_id=0,
                mode=MODE_FULL, rng_algorithm="philox4x64",
                rng_layout=_TRACE_LAYOUT,
            )), msg
        assert _TRACE_LAYOUT == ("whole-run:occupancy-poisson,"
                                 "relays-binomialxk,relays-f64xk"), msg

    def test_no_load_delivers_nothing(self):
        st = simulate(SimConfig(params=SystemParams(0.0, 3, 0.3, 0.3, 1.0),
                                n_slots=50_000, seed=53))
        assert st.delivered_packets == st.total_decodes == 0
        assert st.ci95_halfwidth == 0.0

    @pytest.mark.parametrize("g", [0.0, 0.25, 2.0, 50.0, 300.0, 1e6])
    def test_occupancy_cdf_is_a_cdf(self, g):
        cdf, p_dec = _occupancy(g, 0.3)
        lo, weights, _ = poisson_table(g, _TAIL)
        assert cdf.size + 1 == p_dec.size == len(weights)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] >= 0.0 and cdf[-1] <= 1.0
        # the decode probabilities are the series' own, bit for bit
        assert p_dec.tolist() == _decode_table(g, 0.3, _TAIL)[2]
        assert p_dec[0] == (lo * (1.0 - 0.3) * 0.3 ** (lo - 1) if lo else 0.0)

    def test_a_million_packets_per_slot(self):
        p = SystemParams(1e6, 4, 0.3, 0.3, 0.5)
        st = simulate(SimConfig(params=p, n_slots=2000, seed=73))
        # nothing decodes with a million packets in a slot
        assert st.total_decodes == 0 and st.throughput_estimate == 0.0

    def test_heavy_load_runs(self):
        p = SystemParams(300.0, 2, 0.99, 0.1, 0.5)
        st = simulate(SimConfig(params=p, n_slots=100_000, seed=59))
        assert st.total_decodes > 0
        assert within_ci(st.throughput_estimate, throughput_series(p).value,
                         st.ci95_halfwidth)

    def test_equal_seeds_bit_identical_over_several_chunks(self):
        cfg = SimConfig(params=SystemParams(2.0, 5, 0.3, 0.3, 0.5),
                        n_slots=3 * _CHUNK + 5, seed=61, stream_id=9)
        assert simulate(cfg) == simulate(cfg)
        assert simulate(cfg).rng_layout == RNG_LAYOUT

    @pytest.mark.parametrize("n_slots", [100_000, 2_000_000])
    def test_memory_is_flat_in_n_slots(self, n_slots):
        cfg = SimConfig(params=SystemParams(2.0, 8, 0.3, 0.3, 0.5),
                        n_slots=n_slots, seed=67)
        simulate(dataclasses.replace(cfg, n_slots=10))  # lazy imports
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_integer_like_relay_counts(self):
        a = simulate(SimConfig(params=SystemParams(1.4, np.int64(3), 0.3,
                                                   0.3, 0.8),
                               n_slots=5000, seed=71))
        b = simulate(SimConfig(params=SystemParams(1.4, 3, 0.3, 0.3, 0.8),
                               n_slots=5000, seed=71))
        assert a == b

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integer_relay_count_is_a_domain_error(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            simulate(SimConfig(params=SystemParams(1.4, k, 0.3, 0.3, 0.8),
                               n_slots=100))


class TestNumpyRules:
    """The numpy rules by which ``simulate`` reads raw Philox words.

    A numpy release that changes either one fails here by name, not only
    in the pinned SimStats.
    """

    def test_float64_is_the_top_53_bits_of_a_word(self):
        gen = rng_substream(41, 3)
        words = rng_substream(41, 3).bit_generator
        for n in (1, 5, 8, 7, 2, _CHUNK + 3):
            want = (words.random_raw(n) >> 11) * 2.0**-53
            assert np.array_equal(gen.random(n), want), (
                f"Generator.random() is no longer (w >> 11) 2^-53 (n={n})")

    def test_float32_is_the_top_24_bits_of_a_half_low_half_first(self):
        gen = rng_substream(41, 3)
        words = rng_substream(41, 3).bit_generator
        halves = np.empty(0, dtype=np.uint32)  # drawn, not yet used
        for n in (1, 4, 7, 2, 9, 8, _CHUNK + 1):
            more = words.random_raw((n - halves.size + 1) // 2)
            halves = np.concatenate([halves, more.astype("<u8").view("<u4")])
            want = (halves[:n] >> 8).astype(np.float32) * np.float32(2**-24)
            halves = halves[n:]
            got = gen.random(n, dtype=np.float32)
            assert got.dtype == np.float32 and np.array_equal(got, want), (
                "random(dtype=float32) is no longer (h >> 8) 2^-24 of the "
                f"next 32-bit half, low half first (n={n})")


class TestThresholds:
    @pytest.mark.parametrize("g", [0.0, 1e-9, 0.25, 2.0, 8.0, 300.0, 690.0])
    @pytest.mark.parametrize("eps_u", [0.0, 0.3, 0.999, 1.0])
    def test_bucket_lookup_is_exact(self, g, eps_u):
        cdf = _occupancy(g, eps_u)[0]
        edges = np.arange(1 << _BITS, dtype=np.uint64) << np.uint64(
            64 - _BITS)
        # the words whose uniform is the first at or above each CDF value
        steps = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(
            np.uint64) << np.uint64(11)
        words = np.concatenate([
            edges, edges - np.uint64(1),  # the first is 2^64 - 1
            steps, steps - np.uint64(1 << 11),
            rng_substream(11, 12).bit_generator.random_raw(100_000),
        ])
        look = _Thresholds(SystemParams(g, 3, eps_u, 0.3, 0.6), True,
                           words.size)
        got = np.empty((3, words.size), dtype=np.uint32)
        look(words, got)
        u = (words >> 11) * 2.0**-53
        want = look.tables[:, np.searchsorted(look.cdf, u, side="right")]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("eps_u", [0.0, 0.3, 0.999, 1.0])
    def test_integer_thresholds_decide_as_float32_uniforms(self, eps_u):
        # m < ceil(t 2^24) exactly when the float32 uniform m 2^-24 < t
        p = SystemParams(2.0, 3, eps_u, 0.3, 0.6)
        _, p_dec = _occupancy(p.g, p.eps_u)
        t = np.array([p_dec, p_dec * p.delta,
                      p_dec * (p.delta * (1.0 - p.eps_d))], dtype=np.float32)
        n = _Thresholds(p, True, 1).tables.astype(np.int64)
        assert n.max() <= 2**24
        below = (n - 1).astype(np.float32) * np.float32(2**-24)
        at = n.astype(np.float32) * np.float32(2**-24)
        assert np.all((below < t)[n > 0])
        assert np.all((at >= t)[n < 2**24])
