"""Command-line front end.

Exit codes: 0 success, 2 usage error, unreadable input path, unwritable
output path or input parse error, 3 vertex-cover size exceeded,
4 resource cap exceeded, 1 anything else.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .drawing import UnrealizableDrawing, drawing_to_text
from .graphs import (
    CompressedGraph,
    CoverSizeExceeded,
    compress,
    find_vertex_cover,
    parse_compressed,
    parse_edge_list,
)
from .iqp import IqpCapExceeded, iqp_to_text
from .oracle import (
    MAX_CROSSINGS,
    OracleCeilingExceeded,
    expand_for_oracle,
    oracle_cr,
)
from .pipeline import (
    ClusteringMismatch,
    PipelineOptions,
    ResourceCapExceeded,
    component_split,
    crossing_number,
    enumerate_clusterings,
    initial_budget,
    verify,
)
from .render import render_svg

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_COVER = 3
EXIT_CAP = 4


def non_negative_int(text: str) -> int:
    """argparse type of the count options: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="crossnum",
        description="Exact crossing numbers for graphs with a small vertex cover",
    )
    p.add_argument("input", help="input graph file")
    p.add_argument(
        "--format",
        choices=("edge-list", "compressed"),
        default="edge-list",
        help="input format (compressed inputs carry the cover explicitly)",
    )
    p.add_argument(
        "--mode",
        choices=("solve", "oracle", "verify", "dump-clusterings"),
        default="solve",
    )
    p.add_argument("--k-max", type=non_negative_int, default=8,
                   help="largest vertex cover to search for")
    p.add_argument("--budget-cap", type=non_negative_int,
                   default=PipelineOptions.clustering_cap,
                   help="cap on clusterings enumerated per component")
    p.add_argument("--iqp-cap", type=non_negative_int,
                   default=PipelineOptions.iqp_cap,
                   help="node cap per IQP solve")
    p.add_argument("--oracle-crossings", type=non_negative_int,
                   default=MAX_CROSSINGS,
                   help="iterative deepening ceiling for the oracle")
    p.add_argument("--out-report", help="write the solve report (JSON)")
    p.add_argument("--out-drawing", help="write the lifted drawing (text)")
    p.add_argument("--out-svg", help="render the lifted drawing")
    p.add_argument("-v", "--verbose", action="store_true")
    return p


# Built once, when the module loads: argparse's first message lookup
# imports `locale`, whose regular expressions take more stack than a caller
# with a tight recursion limit may leave to main().
PARSER = build_parser()


def _check_outputs(args):
    """Raise OSError, as the write would, unless every output path can be
    written: its directory exists and the path is not a directory."""
    for path in filter(None, (args.out_report, args.out_drawing,
                              args.out_svg)):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)


def _load(args) -> CompressedGraph:
    with open(args.input) as fh:
        text = fh.read()
    if args.format == "compressed":
        return parse_compressed(text)
    g = parse_edge_list(text)
    cover = find_vertex_cover(g, args.k_max)
    return compress(g, cover)


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.mode != "solve" and (args.out_report or args.out_drawing
                                 or args.out_svg):
        PARSER.error("--out-report, --out-drawing and --out-svg apply only "
                     "to --mode solve")
    if args.mode != "solve" and args.verbose:
        PARSER.error("-v applies only to --mode solve")
    try:
        _check_outputs(args)
        cg = _load(args)
    except CoverSizeExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVER
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    opts = PipelineOptions(
        iqp_cap=args.iqp_cap,
        clustering_cap=args.budget_cap,
        want_drawing=bool(args.out_drawing or args.out_svg),
    )
    try:
        if args.mode == "solve":
            return _run_solve(cg, opts, args)
        if args.mode == "oracle":
            return _run_oracle(cg, args)
        if args.mode == "verify":
            return _run_verify(cg, opts, args)
        return _run_dump(cg, opts)
    except (ResourceCapExceeded, IqpCapExceeded, OracleCeilingExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ClusteringMismatch, UnrealizableDrawing, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # an --out-* path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _run_solve(cg, opts, args) -> int:
    report = crossing_number(cg, opts)
    print(report.value)
    if args.verbose:
        for comp in report.components:
            print(
                f"# component cover={comp.cover} value={comp.value} "
                f"clusterings={comp.clusterings_seen} "
                f"tag_skipped={comp.tag_skipped}",
                file=sys.stderr,
            )
            print("# " + iqp_to_text(comp.instance).replace("\n", "\n# "),
                  file=sys.stderr)
    # opts.want_drawing is set whenever a drawing output is asked for
    for path, text in ((args.out_report, report.to_json),
                       (args.out_drawing,
                        lambda: drawing_to_text(report.lifted)),
                       (args.out_svg, lambda: render_svg(report.lifted))):
        if path:
            with open(path, "w") as fh:
                fh.write(text())
    return EXIT_OK


def _run_oracle(cg, args) -> int:
    print(oracle_cr(expand_for_oracle(cg), args.oracle_crossings))
    return EXIT_OK


def _run_verify(cg, opts, args) -> int:
    report = crossing_number(cg, opts)
    res = verify(report, cg, args.oracle_crossings)
    print(res.detail)
    if not res.ok:
        print("error: verification mismatch", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _run_dump(cg, opts) -> int:
    # every stream lists its representative sets before the first line is
    # printed, so their cap fails the dump with no output
    comps, _ = component_split(cg)
    streams = [
        (cover, enumerate_clusterings(sub, initial_budget(sub), opts))
        for cover, sub in comps
    ]
    for cover, stream in streams:
        print("component " + " ".join(map(str, cover)))
        for count, c in enumerate(stream, 1):
            print(f"clustering {count} r={c.r}")
            print(
                "reps "
                + " ".join(
                    f"{s.vertex}:{s.mask}:{','.join(map(str, s.tag))}"
                    for s in c.reps
                )
            )
            print(drawing_to_text(c.drawing), end="")
            print("end")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
