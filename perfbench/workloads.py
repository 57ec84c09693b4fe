"""The four benchmark workloads.

Each workload makes its inputs from the seed and computes their reference
values once, outside the timed region.  ``round(r)`` then times one pass
of public calls into ``relay_aloha``, exactly as a fresh process would
make them, and checks every output.  An operation is one public call and
its checks; every round attempts the same operations, so the share that
fails does not depend on the seed or on how many rounds fit in a run.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference as ref

WARMUP = 1000  # SimConfig's default warm-up, passed explicitly
SPOT_SLOTS = 100_000

# The acceptance grid of criteria c07, c09 and c10.
GRID_G = (0.25, 0.5, 1.0, 2.0, 4.0)
GRID_K = tuple(range(1, 9))
GRID_EPS_U = (0.05, 0.3, 0.5, 0.9)
GRID_EPS_D = (0.0, 0.3, 0.7)
GRID_DELTA = (0.1, 0.5, 1.0)
FULL_GRID = list(itertools.product(GRID_G, GRID_K, GRID_EPS_U, GRID_EPS_D,
                                   GRID_DELTA))
BOUND_GRID = list(itertools.product(GRID_G, GRID_K, GRID_EPS_U))

# Today's dispatch boundaries in relay_aloha.model: the closed forms are
# used for eps_u > EPS_FLOOR, k <= K_CLOSED_MAX and g < G_CLOSED_MAX.
EPS_FLOOR = 1e-6
K_CLOSED_MAX = 20
G_CLOSED_MAX = 700.0

# A closed-form result is kept in the grid sample only while this many
# times its rounding estimate (k+g)*2^-53*sum|terms| stays within
# checks.SLACK: measured errors stay below 0.8 of the estimate (0.77 at
# most over the 20000 sample points of seeds 1..40), and the factor 2 over
# that is the margin, so a kept point cannot fail the value check.
CLOSED_ERR_MARGIN = 2 * 0.8

# Operations that fail on every run until the program is mended.
# (a) g=650, eps_u=0.999: the closed forms overflow, fsum raises
#     "-inf + inf".  (b) k=16..20 at small eps_u: the alternating closed
#     forms lose 1e-11..2.3e-10 but report est_abs_error=0.
FAULTS = (
    [("S", (650.0, k, 0.999, 0.0, 1.0)) for k in (12, 16, 20)]
    + [("B", (650.0, k, 0.999)) for k in (12, 16, 20)]
    + [("S", (0.5, 20, 1e-3, 0.0, 1.0)), ("S", (1.0, 18, 1e-3, 0.0, 1.0)),
       ("S", (2.0, 20, 1e-4, 0.0, 1.0)), ("S", (0.5, 20, 1e-5, 0.0, 1.0)),
       ("B", (0.5, 20, 1e-3)), ("B", (2.0, 20, 1e-4))]
)


@dataclass
class RoundResult:
    """What one round measured and found."""

    # timed work, split into parts: key -> the part's times in this round
    # (once a round, or several times for the analytic passes of oracle
    # and long_sim)
    parts: dict[str, list[float]] = field(default_factory=dict)
    ops: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    # analytic evaluations returned by one pass of a round's calls, and
    # the times of the parts that make those calls: key -> times
    evals: int = 0
    eval_parts: dict[str, list[float]] = field(default_factory=dict)
    # simulate calls: key -> (seconds, slots simulated, 95% half-width)
    sims: dict[str, tuple[float, int, float]] = field(default_factory=dict)

    def timed(self, key: str, seconds: float, evals: bool = False) -> None:
        """Record one time of a part; evals: the part's calls return the
        analytic evaluations that evals_per_s counts."""
        self.parts.setdefault(key, []).append(seconds)
        if evals:
            self.eval_parts.setdefault(key, []).append(seconds)

    def settle(self, problems: list[str], expected_fault: bool = False):
        """Count one operation; failures outside FAULTS are unexpected."""
        self.ops += 1
        if problems:
            self.failed += 1
            if not expected_fault:
                self.unexpected.extend(problems)


def reset_memo() -> None:
    """Empty the process-global H_m memo, if the program still has one."""
    kernels = sys.modules.get("relay_aloha.kernels")
    values = getattr(getattr(kernels, "_SHARED_CACHE", None), "values", None)
    if isinstance(values, dict):
        values.clear()


def round_seed(seed: int, r: int) -> int:
    """Simulator seed of round r: distinct streams for every round."""
    return int(np.random.SeedSequence([seed, r]).generate_state(
        1, np.uint64)[0])


def call(fn, *args):
    """The call's result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation, counted and reported
        return exc


def raised(label: str, out) -> list[str]:
    return [f"{label}: raised {out!r}"] if isinstance(out, Exception) else []


class SpotCheck:
    """A few simulate calls against the reference, outside ``wall``.

    Workloads whose timed work leaves the simulator idle still report the
    simulator metrics; these calls supply them, and check the simulator
    on the workload's own points.
    """

    def __init__(self, ra, points):
        self.ra = ra
        self.points = points
        self.refs = [ref.throughput_ref(*p) for p in points]

    def run(self, res: RoundResult, seed: int) -> None:
        ra = self.ra
        for i, (p, want) in enumerate(zip(self.points, self.refs)):
            cfg = ra.SimConfig(params=ra.SystemParams(*p), n_slots=SPOT_SLOTS,
                               warmup_slots=WARMUP, seed=seed, stream_id=i)
            t0 = time.perf_counter()
            st = call(ra.simulate, cfg)
            dt = time.perf_counter() - t0
            label = f"simulate{p}"
            problems = raised(label, st)
            if not problems:
                problems = (checks.counters(label, st)
                            + checks.simulated(label, st, want))
                res.sims[f"spot{i}"] = (dt, SPOT_SLOTS + WARMUP,
                                        st.ci95_halfwidth)
            res.settle(problems)

    @property
    def largest(self):
        p = max(self.points, key=lambda p: p[1])
        return self.ra.SimConfig(params=self.ra.SystemParams(*p),
                                 n_slots=SPOT_SLOTS, warmup_slots=WARMUP)


# --------------------------------------------------------------------------
# figures: the CLI path that regenerates the paper's plots


def _fmt(v) -> str:
    """A number as the package CSV writes it (10 significant digits)."""
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _read_csv(data: bytes) -> list[dict[str, str]]:
    lines = [ln for ln in data.decode("utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Figures:
    """``reproduce fig2..fig5`` and the three optimizer commands, through
    ``cli.cli_main`` in-process, CSV written to files and read back."""

    def __init__(self, ra, seed: int, workdir: Path):
        self.ra = ra
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        # erasure rates within +-0.01 of 0.15, 0.35, 0.55 and 0.75: the
        # optimizers' cost grows with the load 1/(1-eps), so wider draws
        # would make the seed, not the program, move wall_s by ~7%
        spread = [c + 0.02 * (float(rng.random()) - 0.5)
                  for c in (0.15, 0.35, 0.55, 0.75)]
        self.first_bytes: dict[str, bytes] = {}
        # (command label, CSV bytes) -> (problems found, rows)
        self.verdicts: dict[tuple[str, bytes], tuple[list[str], list]] = {}
        self.spot = SpotCheck(ra, [(g, 2, 0.3, 0.3, 1.0)
                                   for g in (0.5, 1.0, 2.0, 4.0)])
        self.commands: list[tuple[str, list[str], object]] = []

        fig_refs = self._figure_refs()
        for fig in ("fig2", "fig3", "fig4", "fig5"):
            self._add(fig, ["reproduce", fig], self._figure_check(fig, fig_refs[fig]))

        def peak(eps):
            return 1.0 / (1.0 - eps)

        for eps in spread:
            for k in (3, 8):
                best = ref.max_over_delta(peak(eps), k, eps, eps)[1]
                self._add(f"optimize-delta eps={eps:.4f} k={k}",
                          ["optimize-delta", "--g", repr(peak(eps)), "--k",
                           str(k), "--eps-u", repr(eps), "--eps-d", repr(eps)],
                          self._delta_check(peak(eps), k, eps, eps, best))
        self._add("optimize-delta clean k=2",
                  ["optimize-delta", "--g", "1.0", "--k", "2", "--eps-u", "0",
                   "--eps-d", "0"],
                  self._delta_check(1.0, 2, 0.0, 0.0,
                                    ref.max_over_delta(1.0, 2, 0.0, 0.0)[1],
                                    delta_star=0.5))
        for eps in spread:
            self._add(f"optimize-load eps={eps:.4f}",
                      ["optimize-load", "--k", "2", "--eps-u", repr(eps),
                       "--eps-d", repr(eps), "--delta", "1"],
                      self._load_check(2, eps, eps, 1.0))
        for eps, k_max, want in ([(e, 32, None) for e in spread]
                                 + [(0.1, 10, 1), (0.3, 10, 2), (0.5, 10, 4)]):
            self._add(f"optimize-k eps={eps:.4f} k_max={k_max}",
                      ["optimize-k", "--eps-u", repr(eps), "--eps-d",
                       repr(eps), "--k-max", str(k_max)],
                      self._k_check(eps, k_max, want))

    def _add(self, label, argv, check):
        path = self.workdir / f"out{len(self.commands)}.csv"
        self.commands.append((label, argv + ["--out", str(path)], check))

    @staticmethod
    def _figure_refs() -> dict[str, dict]:
        """Reference values keyed by each row's CSV key cells."""
        out = {"fig2": {}, "fig3": {}, "fig4": {}, "fig5": {}}
        for eps in (0.1, 0.3, 0.5):
            for i in range(101):
                g = i * 0.05
                out["fig2"][(_fmt(eps), _fmt(g))] = (
                    ref.throughput_ref(g, 2, eps, eps, 1.0),
                    ref.bound_ref(g, 2, eps))
        for j in range(99):
            eps = j * 0.01
            g = 1.0 / (1.0 - eps)
            out["fig3"][(_fmt(eps),)] = (
                g, ref.max_over_delta(g, 2, eps, eps, 401)[1],
                ref.bound_ref(g, 2, eps), ref.throughput_ref(g, 1, eps, eps, 1.0))
        for iu in range(20):
            for id_ in range(20):
                eu, ed = iu * 0.05, id_ * 0.05
                g = 1.0 / (1.0 - eu)
                out["fig4"][(_fmt(eu), _fmt(ed))] = (
                    g, ref.max_over_delta(g, 2, eu, ed, 401)[1])
        for eps in (0.1, 0.3, 0.5):
            g = 1.0 / (1.0 - eps)
            for k in range(1, 33):
                out["fig5"][(_fmt(eps), _fmt(k))] = (
                    g, ref.max_over_delta(g, k, eps, eps)[1],
                    ref.bound_ref(g, k, eps))
        return out

    @staticmethod
    def _figure_check(fig, refs):
        key_cols = {"fig2": ("eps", "g"), "fig3": ("eps",),
                    "fig4": ("eps_u", "eps_d"), "fig5": ("eps", "k")}[fig]

        def check(rows):
            keys = [tuple(row[c] for c in key_cols) for row in rows]
            if sorted(keys) != sorted(refs):
                return [f"{fig}: rows {len(keys)} do not match the "
                        f"{len(refs)} rows the figure defines"]
            problems = []
            for key, row in zip(keys, rows):
                label = f"{fig} {key}"
                r = refs[key]
                if fig == "fig2":
                    problems += checks.csv_digits(label + " s", row["s"], r[0])
                    problems += checks.csv_digits(label + " s_bound",
                                                  row["s_bound"], r[1])
                    continue
                if fig == "fig3":
                    eps = float(row["eps"])
                    args = (r[0], 2, eps, eps)
                    problems += checks.csv_digits(label + " s_bound",
                                                  row["s_bound"], r[2])
                    problems += checks.csv_digits(
                        label + " s_single_relay", row["s_single_relay"], r[3])
                elif fig == "fig4":
                    args = (r[0], 2, float(row["eps_u"]), float(row["eps_d"]))
                else:
                    eps = float(row["eps"])
                    args = (r[0], int(row["k"]), eps, eps)
                    problems += checks.csv_digits(label + " s_bound",
                                                  row["s_bound"], r[2])
                at_arg = ref.throughput_ref(*args, float(row["delta_star"]))
                problems += checks.optimum(label, float(row["s_star"]),
                                           at_arg, r[1])
            return problems

        return check

    @staticmethod
    def _delta_check(g, k, eu, ed, best, delta_star=None):
        def check(rows):
            (row,) = rows
            d = float(row["delta_star"])
            problems = checks.optimum("optimize-delta", float(row["s_star"]),
                                      ref.throughput_ref(g, k, eu, ed, d), best)
            if delta_star is not None and abs(d - delta_star) > 1e-6:
                problems.append(f"optimize-delta: delta* {d!r} on the clean "
                                f"two-relay channel, expected {delta_star}")
            return problems

        return check

    @staticmethod
    def _load_check(k, eu, ed, delta):
        coarse = np.linspace(0.02, 8.0, 400)
        s = [ref.throughput_ref(g, k, eu, ed, delta) for g in coarse]
        i = int(np.argmax(s))
        fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 399)], 101)
        best = max(ref.throughput_ref(g, k, eu, ed, delta) for g in fine)

        def check(rows):
            (row,) = rows
            g = float(row["g_star"])
            return checks.optimum("optimize-load", float(row["s_star"]),
                                  ref.throughput_ref(g, k, eu, ed, delta), best)

        return check

    @staticmethod
    def _k_check(eps, k_max, want):
        g = 1.0 / (1.0 - eps)
        per_k = [ref.max_over_delta(g, k, eps, eps)[1]
                 for k in range(1, k_max + 1)]

        def check(rows):
            (row,) = rows
            k_star = int(row["k_star"])
            if not 1 <= k_star <= k_max:
                return [f"optimize-k: K*={k_star} outside 1..{k_max}"]
            problems = checks.optimum("optimize-k", float(row["s_star"]),
                                      per_k[k_star - 1], max(per_k))
            if want is not None:
                problems += checks.argmax(f"optimize-k eps={eps}", k_star, want)
            return problems

        return check

    def round(self, r: int) -> RoundResult:
        res = RoundResult()
        cli = self.ra.cli
        codes = []
        for label, argv, _ in self.commands:
            reset_memo()  # every CLI process starts with an empty memo
            t0 = time.perf_counter()
            codes.append(call(cli.cli_main, argv))
            res.timed(label, time.perf_counter() - t0,
                      evals=argv[0].startswith("optimize-"))
        for (label, argv, check), code in zip(self.commands, codes):
            if code != 0:
                res.settle([f"{label}: cli_main returned {code!r}"])
                continue
            try:
                data = Path(argv[-1]).read_bytes()
                # the same bytes get the same verdict: a CSV is checked
                # against the reference once, not in every round
                if (label, data) not in self.verdicts:
                    rows = _read_csv(data)
                    self.verdicts[label, data] = (check(rows), rows)
                found, rows = self.verdicts[label, data]
            except (OSError, LookupError, ValueError) as exc:
                res.settle([f"{label}: unreadable CSV: {exc!r}"])
                continue
            if argv[0].startswith("optimize-"):
                res.evals += int(rows[0]["evaluations"])
            first = self.first_bytes.setdefault(label, data)
            res.settle(found + checks.same_bytes(label, first, data))
        self.spot.run(res, round_seed(self.seed, r))
        return res

    @property
    def largest_sim(self):
        return self.spot.largest


# --------------------------------------------------------------------------
# grid: distinct points through the dispatching throughput and bound


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def ill_conditioned(g, k, eu, ed, d) -> bool:
    """Whether today's dispatch sends the point to a closed form that
    overflows or whose rounding estimate exceeds checks.SLACK over
    CLOSED_ERR_MARGIN (see ``reference.closed_form_scale``)."""
    if not (eu > EPS_FLOOR and k <= K_CLOSED_MAX and g < G_CLOSED_MAX):
        return False
    for bound in (False, True):
        log_h, size = ref.closed_form_scale(g, k, eu, ed, d, bound)
        if (log_h > 700.0 or CLOSED_ERR_MARGIN * 2.0**-53 * size * (k + g)
                > checks.SLACK):
            return True
    return False


def grid_sample(seed: int, n: int) -> list[tuple]:
    """n points spread over g <= 700, k <= 32, 0 <= eps_u <= 0.999, a
    quarter each near EPS_FLOOR, near K_CLOSED_MAX, near g = 700 and over
    the whole domain.

    The choices that decide the evaluation path (k, and which side of
    EPS_FLOOR or G_CLOSED_MAX) cycle deterministically, so every seed
    sends the same number of points down each path; g, eps_u, eps_d and
    delta are random.  Points that ill_conditioned() flags are drawn
    again within the same stratum: the faults there would fail a
    seed-dependent number of operations, and FAULTS covers them with
    fixed points instead.
    """
    rng = np.random.default_rng(seed)
    out = []
    for j in range(n):
        region, i = j % 4, j // 4
        for _ in range(100_000):
            if region == 0:
                g = _loguniform(rng, 0.05, 20.0)
                k = 1 + i % 32
                side = 1.0 if i % 2 else -1.0
                eu = EPS_FLOOR * 10.0 ** (side * rng.uniform(0.0, 1.0))
            elif region == 1:
                g = _loguniform(rng, 0.05, 50.0)
                k = K_CLOSED_MAX - 2 + i % 6
                eu = (float(rng.uniform(0.0, 0.999)) if i % 12 < 6
                      else _loguniform(rng, 1e-4, 0.999))
            elif region == 2:
                g = (G_CLOSED_MAX if i % 5 == 0
                     else G_CLOSED_MAX - 10.0 ** rng.uniform(-2.0, 1.5))
                k = 1 + i % 32
                eu = (1.0 - 10.0 ** rng.uniform(-3.0, -1.0) if i % 2
                      else float(rng.uniform(0.0, 0.999)))
            else:
                g = _loguniform(rng, 0.01, G_CLOSED_MAX)
                k = 1 + i % 32
                eu = float(rng.uniform(0.0, 0.999))
            ed = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.9))
            d = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
            if not ill_conditioned(g, k, eu, ed, d):
                out.append((g, k, eu, ed, d))
                break
        else:
            raise RuntimeError(f"no well-conditioned point in stratum {j}")
    return out


class Grid:
    """The c07/c10 grid, a seeded sample of the whole domain and the fixed
    fault points, through ``throughput`` and ``bound``."""

    SAMPLE = 500
    CHUNK = 64  # operations per timed part

    def __init__(self, ra, seed: int, workdir: Path):
        self.ra = ra
        self.seed = seed
        sample = grid_sample(seed, self.SAMPLE)
        # (kind: "S" throughput or "B" bound, params, expected fault)
        ops = [("S", p, False) for p in FULL_GRID]
        ops += [("B", p, False) for p in BOUND_GRID]
        for p in sample:
            ops += [("S", p, False), ("B", p[:3], False)]
        ops += [(kind, p, True) for kind, p in FAULTS]
        self.ops = ops
        self.refs = [ref.throughput_ref(*p) if kind == "S" else ref.bound_ref(*p)
                     for kind, p, _ in ops]
        bound_at = {p: i for i, (kind, p, _) in enumerate(ops) if kind == "B"}
        self.pairs = [(i, bound_at[p[:3]]) for i, (kind, p, fault)
                      in enumerate(ops) if kind == "S" and not fault]
        self.spot = SpotCheck(ra, [(0.5, 2, 0.3, 0.3, 0.5),
                                   (1.0, 4, 0.3, 0.3, 0.5),
                                   (2.0, 8, 0.3, 0.3, 0.5),
                                   (4.0, 8, 0.3, 0.3, 0.5)])

    def round(self, r: int) -> RoundResult:
        ra = self.ra
        throughput, bound, params = ra.throughput, ra.bound, ra.SystemParams
        outs = []
        res = RoundResult()
        for start in range(0, len(self.ops), self.CHUNK):
            t0 = time.perf_counter()
            for kind, p, _ in self.ops[start:start + self.CHUNK]:
                if kind == "S":
                    outs.append(call(lambda q: throughput(params(*q)), p))
                else:
                    outs.append(call(bound, *p))
            # every timed call is an evaluation
            res.timed(str(start), time.perf_counter() - t0, evals=True)
        problems = []
        for (kind, p, fault), out, want in zip(self.ops, outs, self.refs):
            label = f"{'throughput' if kind == 'S' else 'bound'}{p}"
            found = raised(label, out)
            if not found:
                res.evals += 1
                found = checks.value(label, out.value, out.est_abs_error, want)
            problems.append(found)
        for i, j in self.pairs:
            s, sb = outs[i], outs[j]
            if not (isinstance(s, Exception) or isinstance(sb, Exception)):
                problems[i] = problems[i] + checks.ordered(
                    f"point {self.ops[i][1]}", s.value, s.est_abs_error,
                    sb.value, sb.est_abs_error)
        for (_, _, fault), found in zip(self.ops, problems):
            res.settle(found, expected_fault=fault)
        self.spot.run(res, round_seed(self.seed, r))
        return res

    @property
    def largest_sim(self):
        return self.spot.largest


# --------------------------------------------------------------------------
# oracle: c09's simulator-vs-analytic comparison at a short slot count


class Oracle:
    """Every point of the 1440-point grid: ``simulate`` at SLOTS measured
    slots (stream id i for point i) and ``throughput``, both checked
    against the reference."""

    # A call of 5000 slots takes about 1 ms on an unloaded core, half of
    # it per-call set-up, so a run times each call ten to twenty times;
    # at 10,000 slots it was seven to nine.
    SLOTS = 5_000
    # simulate calls between two passes of the analytic side
    PASS_EVERY = 4 * Grid.CHUNK

    def __init__(self, ra, seed: int, workdir: Path):
        self.ra = ra
        self.seed = seed
        self.refs = [ref.throughput_ref(*p) for p in FULL_GRID]

    def _analytic(self, res: RoundResult) -> list:
        """One ``throughput`` call per point, from an empty memo, timed in
        parts of Grid.CHUNK points as on grid (a part of single
        microsecond calls would time mostly the clock)."""
        ra = self.ra
        reset_memo()
        outs = []
        for start in range(0, len(FULL_GRID), Grid.CHUNK):
            t0 = time.perf_counter()
            for p in FULL_GRID[start:start + Grid.CHUNK]:
                outs.append(call(ra.throughput, ra.SystemParams(*p)))
            res.timed(f"analytic{start}", time.perf_counter() - t0,
                      evals=True)
        return outs

    def round(self, r: int) -> RoundResult:
        ra = self.ra
        seed = round_seed(self.seed, r)
        sims, passes, times = [], [], []
        res = RoundResult()
        # The analytic side is some 15 ms of a round's 1.5 s or more: one
        # pass a round would time it only ten to twenty times a run.  A
        # pass after every PASS_EVERY simulate calls samples it all
        # through the round; wall_s counts one pass, at each part's median.
        for i, p in enumerate(FULL_GRID):
            t0 = time.perf_counter()
            cfg = ra.SimConfig(params=ra.SystemParams(*p), n_slots=self.SLOTS,
                               warmup_slots=WARMUP, seed=seed, stream_id=i)
            t1 = time.perf_counter()
            sims.append(call(ra.simulate, cfg))
            t2 = time.perf_counter()
            res.timed(str(i), t2 - t0)
            times.append(t2 - t1)
            if (i + 1) % self.PASS_EVERY == 0 or i + 1 == len(FULL_GRID):
                passes.append(self._analytic(res))
        zs = []
        for i, (p, st, want, dt) in enumerate(
                zip(FULL_GRID, sims, self.refs, times)):
            label = f"simulate{p}"
            found = raised(label, st)
            if not found:
                found = checks.counters(label, st)
                res.sims[str(i)] = (dt, self.SLOTS + WARMUP, st.ci95_halfwidth)
                gap = st.throughput_estimate - want
                hw = st.ci95_halfwidth
                zs.append(gap / hw if hw > 0 else (0.0 if gap == 0 else math.inf))
            res.settle(found)
        for n, outs in enumerate(passes):
            for p, an, want in zip(FULL_GRID, outs, self.refs):
                label = f"throughput{p}"
                found = raised(label, an)
                if not found:
                    if n == 0:  # evals_per_s: one pass's evaluations
                        res.evals += 1  # over one pass's time
                    found = checks.value(label, an.value, an.est_abs_error,
                                         want)
                res.settle(found)
        if zs:
            res.unexpected += checks.oracle_scores(zs)
        return res

    @staticmethod
    def relays(key: str) -> int:
        """Relay count of the simulate call recorded under ``key``."""
        return FULL_GRID[int(key)][1]

    @property
    def largest_sim(self):
        return self.ra.SimConfig(
            params=self.ra.SystemParams(4.0, 8, 0.3, 0.3, 1.0),
            n_slots=self.SLOTS, warmup_slots=WARMUP)


# --------------------------------------------------------------------------
# long_sim: c09's retry length, plus the trace route


class LongSim:
    """Five ``simulate`` runs of 2e6 slots and one ``simulate_trace`` run,
    each against the reference, with eps_u = eps_d = 0.3 and delta = 0.5.

    c09 retries at 1e7 slots, but then a run fits only three or four
    rounds, too few times of each call for a steady figure, and a k=8
    call takes about 500 MB; 2e6 slots fit about a dozen rounds.
    """

    SLOTS = 2_000_000
    TRACE_SLOTS = 10_000
    RUNS = {  # key -> (g, k, bound mode)
        "k1_g2": (2.0, 1, False),
        "k8_g2": (2.0, 8, False),
        "k8_g0.25": (0.25, 8, False),
        "k8_g8": (8.0, 8, False),
        "bound_k8_g2": (2.0, 8, True),
    }

    def __init__(self, ra, seed: int, workdir: Path):
        self.ra = ra
        self.seed = seed
        self.refs = {key: (ref.bound_ref(g, k, 0.3) if b
                           else ref.throughput_ref(g, k, 0.3, 0.3, 0.5))
                     for key, (g, k, b) in self.RUNS.items()}
        self.trace_ref = ref.throughput_ref(2.0, 8, 0.3, 0.3, 0.5)

    def _config(self, g, k, bound_mode, slots, seed, stream):
        ra = self.ra
        return ra.SimConfig(params=ra.SystemParams(g, k, 0.3, 0.3, 0.5),
                            n_slots=slots, warmup_slots=WARMUP, seed=seed,
                            stream_id=stream,
                            mode=ra.MODE_BOUND if bound_mode else ra.MODE_FULL)

    def _analytic(self, res: RoundResult) -> tuple[dict, object]:
        """The six analytic values the comparisons use, from an empty
        memo, timed together (six calls of some 10 us)."""
        ra = self.ra
        reset_memo()
        t0 = time.perf_counter()
        ans = {key: (call(ra.bound, g, k, 0.3) if b else call(
                    ra.throughput, ra.SystemParams(g, k, 0.3, 0.3, 0.5)))
               for key, (g, k, b) in self.RUNS.items()}
        trace_an = call(ra.throughput, ra.SystemParams(2.0, 8, 0.3, 0.3, 0.5))
        res.timed("analytic", time.perf_counter() - t0, evals=True)
        return ans, trace_an

    def round(self, r: int) -> RoundResult:
        ra = self.ra
        seed = round_seed(self.seed, r)
        res = RoundResult()
        sims, passes = {}, []
        # one analytic pass after every simulate call: a single pass of
        # some 60 us a round would give evals_per_s a dozen samples a run
        for i, (key, (g, k, b)) in enumerate(self.RUNS.items()):
            cfg = self._config(g, k, b, self.SLOTS, seed, i)
            t0 = time.perf_counter()
            sims[key] = call(ra.simulate, cfg)
            res.timed(key, time.perf_counter() - t0)
            passes.append(self._analytic(res))
        cfg = self._config(2.0, 8, False, self.TRACE_SLOTS, seed, len(self.RUNS))
        t0 = time.perf_counter()
        traced = call(ra.simulate_trace, cfg)
        res.timed("trace", time.perf_counter() - t0)
        passes.append(self._analytic(res))

        for key, st in sims.items():
            found = raised(key, st)
            if not found:
                res.sims[key] = (res.parts[key][0], self.SLOTS + WARMUP,
                                 st.ci95_halfwidth)
                found = (checks.counters(key, st)
                         + checks.simulated(key, st, self.refs[key]))
            res.settle(found)
        found = raised("simulate_trace", traced)
        if not found:
            st, records = traced
            found = (checks.counters("simulate_trace", st)
                     + checks.simulated("simulate_trace", st, self.trace_ref)
                     + checks.trace_records("simulate_trace", st, records,
                                            WARMUP))
        res.settle(found)
        wants = [*self.refs.values(), self.trace_ref]
        for n, (ans, trace_an) in enumerate(passes):
            labels = [f"{key} analytic" for key in ans] + ["simulate_trace analytic"]
            for label, an, want in zip(labels, [*ans.values(), trace_an], wants):
                found = raised(label, an)
                if not found:
                    if n == 0:  # evals_per_s: one pass's evaluations
                        res.evals += 1  # over one pass's time
                    found = checks.value(label, an.value, an.est_abs_error,
                                         want)
                res.settle(found)
        return res

    @property
    def largest_sim(self):
        return self._config(2.0, 8, False, self.SLOTS, 0, 0)


WORKLOADS = {"figures": Figures, "grid": Grid, "oracle": Oracle,
             "long_sim": LongSim}
