#!/usr/bin/env python3
"""Solver parity check: 396 seeded in-memory solves, 300 on the 0 dB demo
scene, 60 on a larger 0 dB array and 36 in a noiseless swamp; with --seeds N
the 120 dense and masked demo solves of 20 seeds become 6 N.

    python3 tools/solver_parity.py > parent.jsonl            # on one checkout
    python3 tools/solver_parity.py --against parent.jsonl    # on another
    python3 tools/solver_parity.py --seeds 200 > census.jsonl  # a wider census

Seeds 0-19 of configs/demo_scene.json (0 to N-1 with --seeds N), each
under two conditions ("dense", and "masked_residuals": under the config's
masks, fitted on the masked objective as every incomplete tensor is) and
the three algorithms, with the noise and solver seeds the pipeline
derives from the scene seed. The
"heavy_mask_<percent>" conditions fit seeds 0-9 of the same noisy tensors
under random masks keeping 90, 70, 50 and 30 percent of the entries (one
uniform draw per seed from default_rng(seed + HEAVY_MASK_SEED_OFFSET),
thresholded at each fraction), under the three algorithms: where the
masked curvature decides whether a solve converges at all. The
"unit_1e-5" and "unit_1e5" conditions fit seeds 0-9 of the masked demo
tensor scaled by that factor, under the three algorithms: a change of the
data's unit (EEG recorded in volts has entries near 1e-5) should not
change where a solve lands. The "large_mask_90" condition fits seeds 0-9
of LARGE_SCENE, four sources on a 16x16 array with 30 samples at 0 dB
(248 unknowns at rank 4, above solvers.EXPLICIT_GN_MAX_PARAMS, where the
masked operator is in tangent form), under a 90 percent mask drawn as
above, under the three algorithms. The "large_dense" condition
fits the same tensors unmasked under the three algorithms: the dense
large-array cell, where the start of a fully observed order-3 tensor
decides most of the iterations. The "swamp" condition adds seeds 0-11 of
SWAMP_SCENE, two noiseless sources on a 6x6 array with 12 samples, under
the three algorithms: the configuration where last-bit
rounding decides whether a solve is certified as converged. Every solve
prints one JSON line: seed, condition, algorithm, iterations, converged,
the solver's stop reason, final residual, the number of operator applies
its CG solves made ("matvecs": counted by wrapping the matvec that
solvers._pcg receives; 0 for ALS), the residual's degrees of freedom
("dof": the observed entries less the model's R (sum I_n - N + 1) free
parameters) and wall time in milliseconds
("scaled_ms": the best of TIMING_REPEATS runs of the solve, scaled to
nominal machine speed by the perfbench reference clock timed between
consecutive solves, as perfbench scales its times). The last three are
informational: no gate reads them, and files without them are still
read (so are files without "dof"). The converged count, the median and total iterations, the count of
solves that ran out of iterations (500, unconverged), the matvec total,
the median and 90th percentile wall time and the count of each stop
reason of every condition and algorithm follow on standard error, and
then, for each unit condition and algorithm, how many seeds match the
unscaled "masked_residuals" solve of the same seed in iterations and
converged.

With --against FILE, the solves are compared with those recorded in FILE.
Each solve whose iteration count or converged flag differs, whose residual
differs by more than RESIDUAL_RTOL relative, or that is missing on either
side is listed on standard error, and the exit status is 1. Then, for
each condition and algorithm, the converged count, the iteration total
and the solves out of iterations in FILE and here follow, with how many
solves end at a lower residual than in FILE, at an equal one (within
RESIDUAL_RTOL relative) and at a higher one, and the largest relative
residual gap among the solves converged on both sides, and among those
the largest rise of the objective f = ||r||^2 / 2 over FILE's in units
of FILE's noise estimate sigma^2 = ||r||^2 / dof: the gate for a change
that moves iteration counts or minima on purpose. The matvec
totals and the median and 90th percentile scaled wall times in FILE and
here follow where FILE has them. The cpdhr package and perfbench's
bench_clock module are imported from the src/ and perfbench/ directories
of the checkout that holds this script.
"""

import os

# One BLAS thread, so that a threaded GEMM cannot change the rounding
# between two runs of the same checkout.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from bench_clock import Clock  # noqa: E402

from cpdhr import core, formats, scene, solvers  # noqa: E402
from cpdhr.pipeline import INIT_SEED_OFFSET, NOISE_SEED_OFFSET  # noqa: E402
from cpdhr.solvers import CpdOptions  # noqa: E402

SEEDS = range(20)
HEAVY_MASK_SEEDS = range(10)
HEAVY_MASK_FRACTIONS = (0.9, 0.7, 0.5, 0.3)
HEAVY_MASK_SEED_OFFSET = 3000003
UNIT_SEEDS = range(10)
UNIT_SCALES = {"unit_1e-5": 1e-5, "unit_1e5": 1e5}
SWAMP_SEEDS = range(12)
# the SWAMP_SCENE of tests/test_solvers.py
SWAMP_SCENE = scene.DoaScene(
    sources=[scene.SourceSpec(15.0, 25.0), scene.SourceSpec(55.0, 40.0)],
    grid_m1=6, grid_m2=6, time_len=12,
)
LARGE_SEEDS = range(10)
LARGE_SCENE = scene.DoaScene(
    sources=[scene.SourceSpec(a, e) for a, e in ((10, 20), (30, 30), (70, 40), (50, 15))],
    grid_m1=16, grid_m2=16, time_len=30,
)
RESIDUAL_RTOL = 1e-12
# every solve is timed as the best of this many runs of it: one wall-time
# sample of a solve of a few milliseconds moves by 10-20% from run to run
TIMING_REPEATS = 3


@contextlib.contextmanager
def counted_matvecs():
    """Within the block, every CG solve of the solvers applies its operator
    through a counting wrapper; yields the count as a one-element list.
    solvers._pcg is replaced for the block only, so nothing outside it
    sees the wrapper."""
    real = solvers._pcg
    count = [0]

    def pcg(matvec, *args):
        def counted(v):
            count[0] += 1
            return matvec(v)
        return real(counted, *args)

    solvers._pcg = pcg
    try:
        yield count
    finally:
        solvers._pcg = real


class _ScaledTimer:
    """Best-of-TIMING_REPEATS wall times of solves, scaled to nominal
    machine speed: the speed of a shared core drifts by more than the
    best-of-3 removes, and the perfbench reference, timed once between
    consecutive solves, drifts with it."""

    def __init__(self):
        self._clock = Clock()
        self._before = self._clock.reference_ms()

    def solve(self, tensor, opts):
        """solvers.cpd(tensor, opts)'s diagnostics, the CG matvecs of one
        run of it and its scaled time in ms."""
        times = []
        for _ in range(TIMING_REPEATS):
            with counted_matvecs() as matvecs:
                start = time.perf_counter()
                _, diag = solvers.cpd(tensor, opts)
                times.append(time.perf_counter() - start)
        after = self._clock.reference_ms()
        ms = 1e3 * min(times) * self._clock.scale(self._before, after)
        self._before = after
        return diag, matvecs[0], ms


def _solve_all(timer, tensor, seed, condition, rank):
    """One record per algorithm for one tensor."""
    values, mask = (tensor.values, tensor.mask) if isinstance(tensor, core.IncompleteTensor) else (tensor, None)
    dof = int(solvers._degrees_of_freedom(values, mask, rank)[1])
    for algorithm in solvers.ALGORITHMS:
        opts = CpdOptions(rank=rank, algorithm=algorithm, init=seed + INIT_SEED_OFFSET)
        diag, matvecs, ms = timer.solve(tensor, opts)
        yield {"seed": seed, "condition": condition, "algorithm": algorithm,
               "iterations": diag.iterations, "converged": diag.converged,
               "stop_reason": diag.stop_reason, "residual": diag.final_relative_residual,
               "matvecs": matvecs, "dof": dof, "scaled_ms": round(ms, 3)}


def solves(seeds=SEEDS):
    """One record per (seed, condition, algorithm), in a fixed order, with
    the dense and masked_residuals demo conditions on seeds."""
    cfg = formats.load_config(os.path.join(ROOT, "configs", "demo_scene.json"))
    timer = _ScaledTimer()

    def noisy(doa_scene, seed):
        sources = scene.synthetic_sources(doa_scene.time_len, doa_scene.rank, seed=seed)
        clean, _ = scene.build_scene_tensor(doa_scene, sources)
        return scene.add_noise(clean, cfg.snr_db, seed=seed + NOISE_SEED_OFFSET)

    def heavy_mask(seed, shape):
        return np.random.default_rng(seed + HEAVY_MASK_SEED_OFFSET).random(shape)

    for seed in seeds:
        demo = noisy(cfg.scene, seed)
        masked = scene.apply_mask(demo, cfg.masks)
        yield from _solve_all(timer, demo, seed, "dense", cfg.rank)
        yield from _solve_all(timer, masked, seed, "masked_residuals", cfg.rank)
    for seed in HEAVY_MASK_SEEDS:
        demo = noisy(cfg.scene, seed)
        draw = heavy_mask(seed, demo.shape)
        for fraction in HEAVY_MASK_FRACTIONS:
            tensor = core.IncompleteTensor(demo, draw < fraction)
            condition = f"heavy_mask_{round(100 * fraction)}"
            yield from _solve_all(timer, tensor, seed, condition, cfg.rank)
    for seed in UNIT_SEEDS:
        masked = scene.apply_mask(noisy(cfg.scene, seed), cfg.masks)
        for condition, factor in UNIT_SCALES.items():
            tensor = core.IncompleteTensor(factor * masked.values, masked.mask)
            yield from _solve_all(timer, tensor, seed, condition, cfg.rank)
    for seed in LARGE_SEEDS:
        large = noisy(LARGE_SCENE, seed)
        tensor = core.IncompleteTensor(large, heavy_mask(seed, large.shape) < 0.9)
        yield from _solve_all(timer, tensor, seed, "large_mask_90", LARGE_SCENE.rank)
        yield from _solve_all(timer, large, seed, "large_dense", LARGE_SCENE.rank)
    for seed in SWAMP_SEEDS:
        sources = scene.synthetic_sources(SWAMP_SCENE.time_len, SWAMP_SCENE.rank, seed=seed)
        clean, _ = scene.build_scene_tensor(SWAMP_SCENE, sources)
        yield from _solve_all(timer, clean, seed, "swamp", SWAMP_SCENE.rank)


def _key(rec):
    return rec["seed"], rec["condition"], rec["algorithm"]


def _stops(recs):
    """How many solves ran out of iterations: stopped unconverged at the
    default limit."""
    limit = CpdOptions(rank=1).max_iterations
    return sum(r["iterations"] >= limit and not r["converged"] for r in recs)


def _times(recs):
    """The median and 90th percentile of the solves' scaled wall times."""
    ms = [r["scaled_ms"] for r in recs]
    return f"{np.median(ms):.2f}/{np.percentile(ms, 90):.2f} ms"


def _matvecs(recs):
    """The CG matvec total of the solves."""
    return sum(r["matvecs"] for r in recs)


def _stop_reasons(recs):
    """How many solves ended for each stop reason, by name."""
    counts = Counter(r["stop_reason"] for r in recs)
    return ", ".join(f"{reason} {counts[reason]}" for reason in sorted(counts))


def cell_summaries(records):
    """One line per (condition, algorithm): converged solves of all, the
    median and total iterations, the solves that ran out of iterations, the
    CG matvec total, the median and 90th percentile scaled wall time, and
    the count of each stop reason where the records have one."""
    cells = {}
    for rec in records:
        cells.setdefault((rec["condition"], rec["algorithm"]), []).append(rec)
    return [f"{condition} {algorithm}: {sum(r['converged'] for r in recs)}/{len(recs)} converged, "
            f"iterations median {np.median([r['iterations'] for r in recs]):g} "
            f"total {sum(r['iterations'] for r in recs)}, {_stops(recs)} out of iterations, "
            f"matvecs total {_matvecs(recs)}, median/p90 {_times(recs)}"
            + (f", stops {_stop_reasons(recs)}" if all("stop_reason" in r for r in recs) else "")
            for (condition, algorithm), recs in cells.items()]


def unit_matches(records):
    """One line per (unit condition, algorithm): the seeds whose iterations
    and converged flag equal those of the unscaled masked_residuals solve
    of the same seed and algorithm."""
    base = {(r["seed"], r["algorithm"]): r for r in records if r["condition"] == "masked_residuals"}
    cells = {}
    for rec in records:
        if rec["condition"] in UNIT_SCALES:
            old = base[rec["seed"], rec["algorithm"]]
            same = all(rec[name] == old[name] for name in ("iterations", "converged"))
            cells.setdefault((rec["condition"], rec["algorithm"]), []).append(same)
    return [f"{condition} {algorithm}: {sum(same)}/{len(same)} seeds match unscaled "
            f"masked_residuals in iterations and converged"
            for (condition, algorithm), same in cells.items()]


def _residual_sign(old, new):
    """-1, 0 or 1 as new's residual is lower than, equal within
    RESIDUAL_RTOL relative to, or higher than old's; a NaN counts as
    lower, so that it is never taken as equal."""
    gap = new["residual"] - old["residual"]
    if abs(gap) <= RESIDUAL_RTOL * abs(old["residual"]):
        return 0
    return 1 if gap > 0 else -1


def _rise(old, new):
    """The objective's rise from old to new in units of old's sigma^2:
    (f_new - f_old) / (2 f_old / dof), read off the relative residuals
    (nan for a reference residual of 0)."""
    old_sq, new_sq = np.float64(old["residual"]) ** 2, np.float64(new["residual"]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * (new_sq - old_sq) * new["dof"] / old_sq


def cell_comparisons(records, reference):
    """One line per (condition, algorithm) of the records: converged count,
    iteration total and solves out of iterations in the reference and here,
    the solves whose residual is lower, equal and higher here, the largest
    relative residual gap among the solves converged on both sides (nan
    when any of those gaps is NaN) and, where the records have dof, the
    largest objective rise among them in the reference's sigma^2 (0 when
    none rose; nan when any rise is NaN), and the CG matvec totals and the
    median and 90th percentile scaled wall times where the reference has
    them."""
    ref = {_key(r): r for r in reference}
    cells = {}
    for rec in records:
        cells.setdefault((rec["condition"], rec["algorithm"]), []).append((ref.get(_key(rec)), rec))
    lines = []
    for (condition, algorithm), pairs in cells.items():
        pairs = [(old, new) for old, new in pairs if old is not None]
        both = [(old, new) for old, new in pairs if old["converged"] and new["converged"]]
        gaps = [abs(new["residual"] - old["residual"]) / abs(old["residual"]) for old, new in both]
        olds, news = [o for o, _ in pairs], [n for _, n in pairs]
        signs = [_residual_sign(old, new) for old, new in pairs]
        extra = ""
        if pairs and all("dof" in new for _, new in pairs):
            extra += f", largest rise {np.max([_rise(old, new) for old, new in both], initial=0.0):.2g} sigma^2"
        if pairs and all("matvecs" in old for old in olds):
            extra += f", matvecs total {_matvecs(olds)} -> {_matvecs(news)}"
        if pairs and all("scaled_ms" in old for old in olds):
            extra += f", median/p90 {_times(olds)} -> {_times(news)}"
        lines.append(
            f"{condition} {algorithm}: converged {sum(o['converged'] for o in olds)}/{len(pairs)} -> "
            f"{sum(n['converged'] for n in news)}/{len(pairs)}, iterations total "
            f"{sum(o['iterations'] for o in olds)} -> {sum(n['iterations'] for n in news)}, "
            f"out of iterations {_stops(olds)} -> {_stops(news)}, residual lower/equal/higher "
            f"{signs.count(-1)}/{signs.count(0)}/{signs.count(1)}, "
            f"largest residual gap {np.max(gaps, initial=0.0):.2g} over {len(both)} converged on both sides"
            + extra)
    return lines


def differences(records, reference):
    """One line per solve that differs from the reference or is missing."""
    ref = {_key(r): r for r in reference}
    lines = []
    for rec in records:
        old = ref.pop(_key(rec), None)
        if old is None:
            lines.append(f"{_key(rec)}: not in the reference")
            continue
        diffs = [f"{name} {old[name]} -> {rec[name]}" for name in ("iterations", "converged")
                 if rec[name] != old[name]]
        if _residual_sign(old, rec):
            diffs.append(f"residual {old['residual']!r} -> {rec['residual']!r}")
        if diffs:
            lines.append(f"{_key(rec)}: " + ", ".join(diffs))
    lines += [f"{key}: missing here" for key in ref]
    return lines


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="JSON lines from an earlier run to compare with")
    parser.add_argument("--seeds", metavar="N", type=_positive, default=len(SEEDS),
                        help=f"run the dense and masked_residuals conditions on seeds 0..N-1 "
                             f"(default {len(SEEDS)}); the other conditions keep their seeds")
    args = parser.parse_args(argv)
    records = []
    for rec in solves(range(args.seeds)):
        print(json.dumps(rec), flush=True)
        records.append(rec)
    for line in cell_summaries(records) + unit_matches(records):
        print(line, file=sys.stderr)
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        reference = [json.loads(line) for line in fh if line.strip()]
    lines = differences(records, reference)
    for line in lines + cell_comparisons(records, reference):
        print(line, file=sys.stderr)
    print(f"{len(lines)} differences over {len(records)} solves", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
