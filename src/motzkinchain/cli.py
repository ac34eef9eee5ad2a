"""Command-line front end: validated dispatch, CSV/JSON emission.

Each subcommand runs one library computation and writes a table or a
report.  Files go through a temporary sibling and an atomic rename, CSV
floats carry 17 significant digits, and JSON keys are sorted, so a rerun
with the same configuration produces byte-identical output.

``--threads`` pins the BLAS and OpenMP pool sizes.  The environment
variables only take effect before the numeric stack first loads, which is
why the handlers import the heavy submodules lazily instead of at module
scope.

Exit codes: 0 success, 2 invalid request, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from .errors import InvalidSpec, MotzkinChainError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

FIGURE_TAGS = ("entropy_s1", "entropy_grid", "ratio", "fa_density")

# n values for the reproduced entropy figures: 25 points log-spaced over
# [10, 10**4], deduplicated after rounding
FIGURE_GRID = sorted({round(10.0 ** (1.0 + 3.0 * k / 24.0)) for k in range(25)})


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def _scalarize(value):
    """Let numpy scalars serialize like the Python numbers they wrap."""
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_scalarize) + "\n"


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write text unchanged (no newline translation) via a temp file in the
    target directory and an atomic rename; the temp file is removed on
    failure."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    write_text_atomic(path, text)


def _emit_table(args, header: list[str], rows: list[list], out=None) -> None:
    """Write a table as CSV (default) or as a JSON list of row objects."""
    path = out if out is not None else args.out
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write_text(path, _render_json(payload))
    else:
        _write_text(path, _render_csv(header, rows))


def _emit_report(args, payload: dict) -> None:
    """Write a report as JSON (default) or as key/index/value CSV rows."""
    if args.format == "csv":
        rows = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (list, tuple)):
                rows.extend([key, i, item] for i, item in enumerate(value))
            else:
                rows.append([key, "", value])
        _write_text(args.out, _render_csv(["key", "index", "value"], rows))
    else:
        _write_text(args.out, _render_json(payload))


def _note(message: str, to_stdout: bool) -> None:
    stream = sys.stdout if to_stdout else sys.stderr
    print(message, file=stream)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(piece) for piece in text.split(",") if piece != ""]
    except ValueError as exc:
        raise InvalidSpec(f"{flag} expects comma-separated integers: {exc}") from None
    if not values:
        raise InvalidSpec(f"{flag} must name at least one value")
    return values


def _parse_grid(text: str) -> tuple[float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise InvalidSpec("--grid expects lo:hi:count")
    try:
        lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as exc:
        raise InvalidSpec(f"--grid expects lo:hi:count: {exc}") from None
    if not (0.0 < lo < hi < math.inf) or count < 2:
        raise InvalidSpec("--grid needs finite 0 < lo < hi and count >= 2")
    return lo, hi, count


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _entropy_rows(n_values: list[int], s: int, mode: str) -> list[list]:
    from .schmidt import entropy_asymptotic, entropy_exact
    from .walks import CountTable

    rows = []
    for n in n_values:
        table = CountTable.build(n, s, mode=mode)
        exact = entropy_exact(n, s, table=table)
        asymptotic = entropy_asymptotic(n, s)
        rows.append([n, s, exact, asymptotic, exact / asymptotic])
    return rows


def _density_rows(lo: float, hi: float, count: int) -> list[list]:
    import numpy as np

    from .excursion import excursion_density

    grid = np.linspace(lo, hi, count)
    return [[float(x), float(f)] for x, f in zip(grid, excursion_density()(grid))]


def _cmd_entropy(args) -> int:
    n_values = _parse_int_list(args.n_list, "--n-list")
    rows = _entropy_rows(n_values, args.s, args.mode)
    _emit_table(args, ["n", "s", "S_exact_nats", "S_asym_nats", "ratio"], rows)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .hamiltonian import ChainSpec, build_hamiltonian, lowest_spectrum

    spec = ChainSpec(
        two_n=args.two_n,
        s=args.s,
        boundary=args.boundary,
        field_epsilon0=args.eps0,
    )
    result = lowest_spectrum(build_hamiltonian(spec), k=args.k, seed=args.seed)
    payload = {
        "two_n": args.two_n,
        "s": args.s,
        "boundary": args.boundary,
        "field_epsilon0": args.eps0,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "lambda1": result.lambda1,
        "ground_degeneracy": result.ground_degeneracy,
        "residual_max": float(result.residuals.max()),
        "method": result.method,
    }
    if result.eigenvalues.size >= 2:
        payload["gap"] = result.gap
    _emit_report(args, payload)
    return EXIT_OK


def _cmd_gap(args) -> int:
    from .hamiltonian import gap_scan

    sizes = _parse_int_list(args.sizes, "--sizes")
    scan = gap_scan(sizes, args.s, boundary=args.boundary, seed=args.seed)
    header = ["two_n", "s", "lambda1", "lambda2", "gap", "residual_max"]
    rows = [
        [r["two_n"], r["s"], r["lambda1"], r["lambda2"], r["gap"], r["max_residual"]]
        for r in scan.rows
    ]
    if args.format == "json":
        payload = {
            "rows": [dict(zip(header, row)) for row in rows],
            "slope": scan.slope,
            "slope_stderr": scan.stderr,
        }
        _write_text(args.out, _render_json(payload))
    else:
        _write_text(args.out, _render_csv(header, rows))
    if scan.slope is None:
        note = f"no fitted exponent: the gap at 2n={scan.zero_gap_at} is zero within its residual"
    else:
        note = f"fitted exponent: gap ~ n^{scan.slope:.4f} (stderr {scan.stderr:.4f})"
    _note(note, to_stdout=args.out is not None)
    return EXIT_OK


def _cmd_classes(args) -> int:
    from .hamiltonian import local_move_classes

    periodic = args.boundary == "periodic"
    classes = local_move_classes(args.two_n, args.s, periodic=periodic)
    rows = []
    for index, (members, label) in enumerate(zip(classes.members, classes.labels)):
        p, q = label if label is not None else ("", "")
        rows.append([index, p, q, int(members.size)])
    _emit_table(args, ["class_index", "p", "q", "member_count"], rows)
    _note(f"{classes.count} classes on {args.two_n} sites", to_stdout=args.out is not None)
    return EXIT_OK


def _cmd_markov(args) -> int:
    from .markov import build_canonical_tree, build_transition, edge_load

    parts = [piece for piece in args.report.split(",") if piece != ""]
    for piece in parts:
        if piece not in ("gap", "edge-load"):
            raise InvalidSpec(f"unknown report part {piece!r}")
    if not parts:
        raise InvalidSpec("--report must name gap and/or edge-load")
    if args.two_n < 2 or args.two_n % 2:
        raise InvalidSpec("two_n must be even and >= 2")
    # the tree checks the pair guard before any basis is built
    tree = build_canonical_tree(args.two_n // 2, args.s) if "edge-load" in parts else None
    transition = build_transition(args.two_n, args.s)
    payload = {"two_n": args.two_n, "s": args.s, "dim": transition.dim}
    if tree is not None:
        # edge_load computes lambda2 itself; the gap part reuses it
        load = edge_load(tree, transition)
        payload.update(
            {
                "lambda2": load.lambda2,
                "gap_true": load.gap_true,
                "rho": load.rho,
                "L": load.path_length_max,
                "gap_bound": load.gap_bound,
                "certified": load.certified(),
            }
        )
    else:
        lambda2 = transition.second_eigenvalue()
        payload["lambda2"] = lambda2
        payload["gap_true"] = 1.0 - lambda2
    _emit_report(args, payload)
    return EXIT_OK


def _cmd_excursion(args) -> int:
    from .excursion import trial_energy_exact, twist_angle

    if args.density == args.trial:
        raise InvalidSpec("pick exactly one of --density or --trial")
    if args.density:
        _emit_table(args, ["x", "f_A"], _density_rows(*_parse_grid(args.grid)))
        return EXIT_OK
    theta = args.theta if args.theta is not None else twist_angle(args.two_n)
    overlap, energy = trial_energy_exact(args.two_n, args.s, theta)
    payload = {
        "two_n": args.two_n,
        "s": args.s,
        "theta_tilde": theta,
        "overlap_re": overlap.real,
        "overlap_im": overlap.imag,
        "overlap_sq": abs(overlap) ** 2,
        "energy": energy,
    }
    _emit_report(args, payload)
    return EXIT_OK


def _cmd_field(args) -> int:
    from .field import field_energies, field_expectation_asymptotic

    report = field_energies(args.n, args.s, args.eps0, m_max=args.m_max)
    rows = []
    for m in sorted(report.energies):
        rows.append(
            [
                m,
                report.exact_expectations[m],
                field_expectation_asymptotic(2 * args.n, m, args.s),
                report.energies[m],
            ]
        )
    _emit_table(args, ["m", "exact_expectation", "asymptotic", "delta_E"], rows)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    suffix = "json" if args.format == "json" else "csv"
    out_path = os.path.join(args.out or ".", f"{args.tag}.{suffix}")
    if args.tag == "entropy_s1":
        header = ["n", "s", "S_exact_nats", "S_asym_nats", "ratio"]
        rows = _entropy_rows(FIGURE_GRID, 1, "auto")
    elif args.tag == "entropy_grid":
        header = ["n", "s", "S_exact_nats", "S_asym_nats", "ratio"]
        rows = []
        for s in (2, 3, 4, 5):
            rows.extend(_entropy_rows(FIGURE_GRID, s, "auto"))
    elif args.tag == "ratio":
        header = ["n", "ratio"]
        rows = [[row[0], row[4]] for row in _entropy_rows(FIGURE_GRID, 2, "auto")]
    else:
        header = ["x", "f_A"]
        rows = _density_rows(0.01, 3.0, 300)
    _emit_table(args, header, rows, out=out_path)
    _note(f"wrote {out_path}", to_stdout=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _shared_flags() -> argparse.ArgumentParser:
    """Global flags, attachable to the root parser and to every subcommand.

    The root copy carries the real defaults; the subcommand copies default
    to SUPPRESS so a flag placed after the subcommand overrides the root
    value and an absent flag leaves it alone.  Both orders then work.
    """
    shared = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS
    shared.add_argument("--out", default=suppress, help="output file (default: stdout)")
    shared.add_argument(
        "--format", choices=("csv", "json"), default=suppress,
        help="output format (default depends on the subcommand)",
    )
    shared.add_argument(
        "--seed", type=int, default=suppress, help="eigensolver start seed"
    )
    shared.add_argument(
        "--threads", type=int, default=suppress,
        help="pin BLAS/OpenMP thread pools to this size",
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinchain",
        description="Colored Motzkin chain numerics: entropy, spectra, mixing, fields.",
    )
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default depends on the subcommand)",
    )
    parser.add_argument("--seed", type=int, default=42, help="eigensolver start seed")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="pin BLAS/OpenMP thread pools to this size",
    )
    common = _shared_flags()
    commands = parser.add_subparsers(dest="command", required=True)

    entropy = commands.add_parser(
        "entropy", help="middle-cut entanglement entropy table", parents=[common]
    )
    entropy.add_argument("--s", type=int, required=True, help="number of letter colors")
    entropy.add_argument("--n-list", required=True, help="comma-separated half-chain sizes")
    entropy.add_argument(
        "--mode", choices=("auto", "exact", "log"), default="auto",
        help="counting arithmetic (auto switches at the exact-table limit)",
    )
    entropy.set_defaults(handler=_cmd_entropy, format_default="csv")

    spectrum = commands.add_parser(
        "spectrum", help="lowest chain eigenvalues", parents=[common]
    )
    spectrum.add_argument("--two-n", type=int, required=True, help="chain length")
    spectrum.add_argument("--s", type=int, required=True)
    spectrum.add_argument(
        "--boundary", choices=("motzkin", "open", "periodic"), default="motzkin"
    )
    spectrum.add_argument("--k", type=int, default=6, help="how many eigenvalues")
    spectrum.add_argument(
        "--eps0", type=float, default=0.0, help="external field strength (0 disables)"
    )
    spectrum.set_defaults(handler=_cmd_spectrum, format_default="json")

    gap = commands.add_parser(
        "gap", help="spectral gap versus size with a fitted exponent", parents=[common]
    )
    gap.add_argument("--s", type=int, required=True)
    gap.add_argument("--sizes", required=True, help="comma-separated chain lengths")
    gap.add_argument(
        "--boundary", choices=("motzkin", "open", "periodic"), default="motzkin"
    )
    gap.set_defaults(handler=_cmd_gap, format_default="csv")

    classes = commands.add_parser(
        "classes", help="move-equivalence sectors of the chain", parents=[common]
    )
    classes.add_argument("--two-n", type=int, required=True, help="chain length")
    classes.add_argument("--s", type=int, required=True)
    classes.add_argument("--boundary", choices=("open", "periodic"), default="open")
    classes.set_defaults(handler=_cmd_classes, format_default="csv")

    markov = commands.add_parser(
        "markov", help="Dyck-space walk gap and congestion bound", parents=[common]
    )
    markov.add_argument("--two-n", type=int, required=True, help="Dyck path length")
    markov.add_argument("--s", type=int, required=True)
    markov.add_argument(
        "--report", default="gap,edge-load",
        help="comma-separated parts: gap, edge-load",
    )
    markov.set_defaults(handler=_cmd_markov, format_default="json")

    excursion = commands.add_parser(
        "excursion", help="excursion-area density or twisted trial state", parents=[common]
    )
    excursion.add_argument("--density", action="store_true", help="tabulate the area density")
    excursion.add_argument("--trial", action="store_true", help="evaluate the trial state")
    excursion.add_argument("--grid", default="0.01:3:300", help="density grid lo:hi:count")
    excursion.add_argument("--two-n", type=int, default=14, help="chain length for --trial")
    excursion.add_argument("--s", type=int, default=1)
    excursion.add_argument(
        "--theta", type=float, default=None,
        help="twist override (default: the reference twist for the size)",
    )
    excursion.set_defaults(handler=_cmd_excursion, format_default=None)

    field = commands.add_parser(
        "field", help="first-order sector energies in a weak field", parents=[common]
    )
    field.add_argument("--n", type=int, required=True, help="half chain length")
    field.add_argument("--s", type=int, required=True)
    field.add_argument("--eps0", type=float, required=True, help="field strength in (0,1)")
    field.add_argument(
        "--m-max", type=int, default=None,
        help="largest imbalance to tabulate (default min(2n, 100))",
    )
    field.set_defaults(handler=_cmd_field, format_default="csv")

    reproduce = commands.add_parser(
        "reproduce", help="emit data behind a named figure", parents=[common]
    )
    reproduce.add_argument("--tag", choices=FIGURE_TAGS, required=True)
    reproduce.set_defaults(handler=_cmd_reproduce, format_default="csv")

    return parser


def _apply_thread_limit(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise InvalidSpec("--threads must be >= 1")
    for name in THREAD_VARIABLES:
        os.environ[name] = str(threads)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_thread_limit(args.threads)
        if args.format is None:
            args.format = args.format_default
        if args.command == "excursion" and args.format is None:
            args.format = "csv" if args.density else "json"
        # color counts enter the float formulas through sqrt(s) and log(s)
        if getattr(args, "s", 1) > sys.float_info.max:
            raise InvalidSpec("--s exceeds the float range")
        if args.command == "field" and args.m_max is None:
            args.m_max = min(2 * args.n, 100) if args.n >= 1 else None
        return args.handler(args)
    except MotzkinChainError as error:
        print(f"error: {error}", file=sys.stderr)
        if isinstance(error, ValueError):
            return EXIT_VALIDATION
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
