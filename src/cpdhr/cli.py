"""Command line entry point.

Subcommands mirror the pipeline stages; modes and indices are 1-based on
the command line. Exit codes: 0 on success, 1 for validation problems,
2 when the solver did not converge (artifacts are still written).
"""

import argparse
import os
import sys

from . import formats, pipeline
from .solvers import ALGORITHMS, CpdOptions


def _parse_seed_range(text):
    """'a..b' inclusive, or a single integer; seeds are non-negative."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad seed range {text!r}, expected 'a..b'") from None
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
    else:
        try:
            lo = hi = int(text)
        except ValueError:
            raise ValueError(f"bad seed value {text!r}") from None
    if lo < 0:
        raise ValueError(f"--seeds {text!r}: seeds must be >= 0")
    return list(range(lo, hi + 1))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpdhr",
        description="Array-scene simulation, CPD source separation, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="build scene tensors from a config file")
    p.add_argument("config")
    p.add_argument("out_dir")

    p = sub.add_parser("decompose", help="run the CPD solver on a tensor file")
    p.add_argument("tensor")
    p.add_argument("out_dir")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default=CpdOptions.algorithm)
    p.add_argument("--seed", type=int, required=True,
                   help="start seed: the slice weights of the algebraic start for an order-3 tensor "
                        "of rank at most its first two extents (of its zero-filled values if masked), "
                        "otherwise the random factors of the data-scaled seeded start")

    p = sub.add_parser("evaluate", help="compare estimated factors against the truth")
    p.add_argument("truth_dir")
    p.add_argument("estimate_dir")
    p.add_argument("out_report")

    p = sub.add_parser("slices", help="export one tensor slice as CSV of magnitudes")
    p.add_argument("tensor")
    p.add_argument("out_csv")
    p.add_argument("--mode", type=int, required=True, help="1-based mode")
    p.add_argument("--index", type=int, required=True, help="1-based slice index")

    p = sub.add_parser("plot", help="overlay signal CSVs as an SVG line chart")
    p.add_argument("signals", nargs="+")
    p.add_argument("out_svg")

    p = sub.add_parser("pipeline", help="simulate, decompose, evaluate in one go")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.add_argument("--seeds", help="inclusive sweep 'a..b' overriding the config seed")
    return parser


def run(argv):
    """Run one command: load its inputs from files, call its stage."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        pipeline.simulate(*formats.read_config(args.config), args.out_dir)
        return 0
    if args.command == "decompose":
        t = formats.load_tensor(args.tensor)
        _, diag, _ = pipeline.decompose(t, os.path.basename(args.tensor), args.rank, args.algorithm,
                                        args.seed, args.out_dir)
        return 0 if diag.converged else 2
    if args.command == "evaluate":
        truth_dir, est_dir = args.truth_dir, args.estimate_dir
        raw, cfg = formats.read_config(os.path.join(truth_dir, "config.json"))
        truth = formats.load_model(truth_dir, "truth_mode")
        sources = formats.load_signals(os.path.join(truth_dir, "sources.csv"))
        estimate = formats.load_model(est_dir, "factor_mode")
        diagnostics = formats.load_diagnostics(os.path.join(est_dir, "diagnostics.json"))
        pipeline.evaluate(cfg, formats.config_digest(raw), truth, sources, estimate, diagnostics,
                          est_dir, args.out_report)
        return 0
    if args.command == "slices":
        text = formats.slice_csv(formats.load_tensor(args.tensor), mode=args.mode, index=args.index)
        formats.write_text(args.out_csv, text)
        return 0
    if args.command == "plot":
        pipeline.plot_overlay([(os.path.splitext(os.path.basename(p))[0], formats.load_signals(p))
                               for p in args.signals], args.out_svg)
        return 0
    if args.command == "pipeline":
        seeds = _parse_seed_range(args.seeds) if args.seeds else None
        _, converged = pipeline.run_pipeline(args.config, args.out_dir, seeds=seeds)
        return 0 if converged else 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for solver
        # non-convergence, so fold usage problems into the validation code
        return 0 if not exc.code else 1


if __name__ == "__main__":
    sys.exit(main())
