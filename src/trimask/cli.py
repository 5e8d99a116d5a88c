"""Command-line front end.

trimask decompose --input layout.json [--solver auto] [--out a.json] ...
trimask gen --shapes 40 --density 6 --seed 1 --out layout.json

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import (
    Layout,
    LayoutError,
    ProcessParams,
    Shape,
    layout_to_dict,
    load_layout,
)
from .graphs import DecompositionGraph, MaskAssignment, parse_edgelist
from .ilp import build_ilp, write_lp
from .pipeline import DecomposeConfig, DecomposeResult, decompose, decompose_graph
from .sdp import build_cost_matrix, solve_relaxation


class UsageError(Exception):
    pass


class InputError(Exception):
    """A validating call rejected the command's input (exit 2)."""


@contextmanager
def _validating():
    """Report a ``ValueError`` raised inside as bad input; elsewhere in a
    command a ``ValueError`` is a bug (exit 3)."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trimask", description="Three-mask layout decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a layout or a bare graph")
    dec.add_argument("--input", help="layout JSON file")
    dec.add_argument("--graph", help="edge-list file (first line n, then 'C u v'/'S u v')")
    dec.add_argument("--solver", choices=("exact", "sdp", "auto"), default="auto")
    dec.add_argument("--alpha", type=float, default=None, help="stitch weight override")
    dec.add_argument("--min-s", type=float, default=None,
                     help="coloring distance override (nm, layout input only)")
    dec.add_argument("--seed", type=int, default=42)
    dec.add_argument("--out", help="assignment JSON output path")
    dec.add_argument("--stats", help="stats JSON output path")
    dec.add_argument("--svg", help="SVG rendering output path (layout input only)")
    dec.add_argument("--dump-lp", help="write the 0-1 model in LP format")
    dec.add_argument("--dump-x", help="write the relaxation Gram matrix as CSV")

    gen = sub.add_parser("gen", help="generate a synthetic benchmark layout")
    gen.add_argument("--shapes", type=int, required=True)
    gen.add_argument("--density", type=float, required=True, help="target conflict degree, 0..8")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "decompose":
            return cmd_decompose(args)
        return cmd_gen(args)
    except (LayoutError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def cmd_decompose(args) -> int:
    if bool(args.input) == bool(args.graph):
        print("error: exactly one of --input or --graph is required", file=sys.stderr)
        return 1
    for flag, value in (("--svg", args.svg), ("--min-s", args.min_s)):
        if value is not None and not args.input:
            print(f"error: {flag} needs a layout (--input)", file=sys.stderr)
            return 2

    with _validating():
        cfg = DecomposeConfig(solver=args.solver, alpha=args.alpha, seed=args.seed)

    layout = None
    if args.input:
        layout = load_layout(args.input)
        if args.min_s is not None:
            layout = Layout(
                shapes=layout.shapes,
                params=replace(layout.params, min_s=args.min_s),
                units=layout.units,
            )
        result = decompose(layout, cfg)
    else:
        with _validating():
            dg = parse_edgelist(Path(args.graph).read_text())
        result = decompose_graph(dg, cfg)

    alpha = result.assignment.alpha
    if args.out:
        Path(args.out).write_text(format_assignment(result.assignment))
    if args.stats:
        Path(args.stats).write_text(format_stats(result))
    if args.svg:
        Path(args.svg).write_text(render_svg(layout, result.assignment, result.dg))
    if args.dump_lp:
        Path(args.dump_lp).write_text(write_lp(build_ilp(result.dg, alpha)))
    if args.dump_x:
        sol = solve_relaxation(build_cost_matrix(result.dg, alpha), seed=cfg.seed)
        Path(args.dump_x).write_text(format_x_csv(sol.v @ sol.v.T))
    return 0


def format_assignment(assignment: MaskAssignment) -> str:
    """The assignment document, byte for byte as ``json.dumps(doc, indent=2)
    + "\n"`` writes it, for doc = {"masks": {str(node): color},
    "stitches": [[u, v], ...], "conflicts": [[u, v], ...]} in sorted order.

    Written directly, since for an indented document the ``json`` module
    falls back to its pure-Python encoder. ``evaluate`` makes every color
    an ``int``, which ``json`` writes as its decimal digits, as an
    f-string does.
    """
    colors = assignment.colors
    masks = [f'    "{node}": {colors[node]}' for node in sorted(colors)]
    stitches, conflicts = (
        [f"    [\n      {u},\n      {v}\n    ]" for u, v in sorted(pairs)]
        for pairs in (assignment.stitches, assignment.conflicts)
    )
    return (
        f'{{\n  "masks": {_indented("{", masks, "}")},\n'
        f'  "stitches": {_indented("[", stitches, "]")},\n'
        f'  "conflicts": {_indented("[", conflicts, "]")}\n}}\n'
    )


def _indented(opening: str, lines: list[str], closing: str) -> str:
    """A container at depth one of an indent-2 JSON document, its members
    already written one per line."""
    if not lines:
        return opening + closing
    return f"{opening}\n" + ",\n".join(lines) + f"\n  {closing}"


def format_stats(result: DecomposeResult) -> str:
    doc = {
        "components": result.components,
        "SE": len(result.dg.se),
        "CE": len(result.dg.ce),
        "st": result.stitch_count,
        "cn": result.conflict_count,
        "objective": result.objective,
        "proven_optimal": result.proven_optimal,
        "wall_s": round(result.wall_time, 6),
        "solver": result.solver,
        "un3colorable_witnesses": [
            {"edge": list(w.edge), "path": list(w.path)} for w in result.witnesses
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def format_x_csv(x: np.ndarray) -> str:
    lines = [",".join(f"{value:.9g}" for value in row) for row in x]
    return "\n".join(lines) + "\n"


MASK_FILLS = ("#4477aa", "#ee6677", "#228833")


def render_svg(layout: Layout, assignment: MaskAssignment, dg: DecompositionGraph) -> str:
    """One filled rect per segment (fill by mask), red lines between the
    centers of conflicting segments, dashed black lines for stitches."""
    rects = dg.rects
    if rects:
        x_min = min(r[0] for r in rects)
        y_min = min(r[1] for r in rects)
        x_max = max(r[2] for r in rects)
        y_max = max(r[3] for r in rects)
    else:
        x_min = y_min = 0
        x_max = y_max = 1
    pad = max(10, (x_max - x_min) // 20)

    def sx(x: float) -> float:
        return x - x_min + pad

    def sy(y: float) -> float:
        return y_max - y + pad  # flip: SVG y grows downward

    width = (x_max - x_min) + 2 * pad
    height = (y_max - y_min) + 2 * pad
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    centers = {}
    for seg_id, (x_lo, y_lo, x_hi, y_hi) in zip(dg.ids, dg.rects):
        centers[seg_id] = ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
        fill = MASK_FILLS[assignment.colors[seg_id]]
        out.append(
            f'<rect x="{sx(x_lo):g}" y="{sy(y_hi):g}" width="{x_hi - x_lo}" '
            f'height="{y_hi - y_lo}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )
    for pairs, style in (
        (assignment.stitches, 'stroke="black" stroke-width="2" stroke-dasharray="6,4"'),
        (assignment.conflicts, 'stroke="red" stroke-width="3"'),
    ):
        for u, v in sorted(pairs):
            (x1, y1), (x2, y2) = centers[u], centers[v]
            out.append(
                f'<line x1="{sx(x1):g}" y1="{sy(y1):g}" x2="{sx(x2):g}" y2="{sy(y2):g}" {style}/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def generate_layout(
    shapes: int, density: float, seed: int, params: ProcessParams | None = None
) -> Layout:
    """Seeded benchmark generator: rows of wires on a grid of cells.

    The density knob sets row and in-row spacing so the expected conflict
    degree lands near the requested value: 0 isolates every wire, up to 2
    gives chains, up to 4 a cross-row mesh, above 4 a dense mesh with short
    wires (the dense regimes leave partially uncovered spans, so stitch
    candidates appear naturally).
    """
    params = params or ProcessParams()
    if shapes < 1:
        raise ValueError(f"need at least one shape, got {shapes}")
    if not 0 <= density <= 8:
        raise ValueError(f"infeasible density {density}: expected 0..8")
    rng = np.random.default_rng(seed)
    min_s = params.min_s
    height = params.min_width

    if density == 0:
        row_gap, col_gap_lo, col_gap_hi = 3 * min_s, 3 * min_s, 3 * min_s + 20
        length_lo, length_hi = 80, 240
    elif density <= 2:
        row_gap, col_gap_lo, col_gap_hi = 2 * min_s, 40, 70
        length_lo, length_hi = 80, 240
    elif density <= 4:
        row_gap, col_gap_lo, col_gap_hi = 65, 40, 70
        length_lo, length_hi = 100, 260
    else:
        row_gap, col_gap_lo, col_gap_hi = 34, 30, 50
        length_lo, length_hi = 60, 140

    per_row = max(1, int(round(float(np.sqrt(shapes)))))
    entries = []
    sid = 0
    y = 0
    row = 0
    while sid < shapes:
        x = int(rng.integers(0, 40))
        jitter_y = int(rng.integers(-3, 4))
        for _ in range(per_row):
            if sid >= shapes:
                break
            length = int(rng.integers(length_lo, length_hi + 1))
            entries.append(Shape(id=sid, rect=(x, y + jitter_y, x + length, y + jitter_y + height)))
            sid += 1
            x += length + int(rng.integers(col_gap_lo, col_gap_hi + 1))
        y += height + row_gap
        row += 1
        # dense meshes are emitted in bands so components stay solver-sized
        if density > 4 and row % 5 == 0:
            y += 3 * min_s
    return Layout(shapes=tuple(entries), params=params)


def cmd_gen(args) -> int:
    with _validating():
        layout = generate_layout(args.shapes, args.density, args.seed)
    Path(args.out).write_text(json.dumps(layout_to_dict(layout), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
