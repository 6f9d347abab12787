"""Command-line front end: estimate on CSV data, simulate, and report.

CSV conventions: every file this tool writes starts with one comment line
``# onestep/<name>/v1 [config=<digest>]`` followed by a header row.  All
floating-point values are written with repr, the shortest decimal string
that parses back to the identical double, so outputs round-trip exactly.

Exit codes: 0 success, 1 input or configuration error, 2 degenerate
estimation (the data admits no stable estimate).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import gc
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .core import Sample
from .errors import (
    ConfigError,
    DegenerateError,
    EstimationError,
    NoConvergenceError,
    ZeroVarianceError,
)
from .montecarlo import (
    SimConfig,
    normal_quantile,
    rows_per_block,
    run,
    worker_count,
)
from .regression import (
    PIPELINES,
    estimation_sequence,
    mm_model,
    plinear_model,
    resolve_pipeline,
    resolve_preliminary,
    sqrt_model,
    to_families,
)

SCHEMA_PREFIX = "onestep"
SCHEMA_VERSION = "v1"

ESTIMATE_MODELS = ("sqrt", "plinear", "mm")

_DEGENERATE_EXITS = (DegenerateError, NoConvergenceError, ZeroVarianceError)

# glibc's malloc thresholds, pinned by main: the values its own dynamic rule
# reaches after a first free of 32 MiB.  Below them every block temporary
# (a (65, 500) array is 254 KiB) comes from the heap, and the heap is not
# trimmed between blocks, so its pages stay resident instead of faulting in
# again for every block.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _schema_line(name: str, digest: str | None = None) -> str:
    line = f"# {SCHEMA_PREFIX}/{name}/{SCHEMA_VERSION}"
    if digest is not None:
        line += f" config={digest}"
    return line


def _start_csv(fh, name: str, header: list[str], digest: str | None):
    """Write the schema line and the header row; return the csv.writer that wrote the header."""
    fh.write(_schema_line(name, digest) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def _write_csv(path: Path, name: str, header: list[str], rows, digest: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = _start_csv(fh, name, header, digest)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_lines(path: Path, name: str, header: list[str], lines, digest: str) -> None:
    """_write_csv for rows given as finished lines, whose cells need no quoting."""
    with open(path, "w", newline="") as fh:
        _start_csv(fh, name, header, digest)
        fh.writelines(lines)


def _read_head(path: Path) -> tuple[list[str], list[str], list[str], int]:
    """(comment lines, header, the lines after the header, the number of file lines before them)."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    skip = 0
    while skip < len(lines) and lines[skip].startswith("#"):
        skip += 1
    comments = lines[:skip]
    if skip == len(lines):
        raise ValueError(f"{path}: no header row")
    header_rows = csv.reader(islice(lines, skip, None))
    try:
        header = next(header_rows)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    start = skip + header_rows.line_num
    seen: set[str] = set()
    for col in header:
        if col in seen:
            raise ValueError(f"{path}: duplicate column {col!r}")
        seen.add(col)
    del lines[:start]
    return comments, header, lines, start


def _split_rows(
    path: Path, header: list[str], lines: list[str], start: int
) -> tuple[dict[str, list[str]], list[int]]:
    """The csv.reader cells of lines, by column, and the file line number of each row.

    A row of the wrong width, or a file csv.reader refuses, raises ValueError naming the file.
    """
    width = len(header)
    rows: list[list[str]] = []
    row_lines: list[int] = []
    reader = csv.reader(lines)
    line = start + 1
    try:
        for row in reader:
            if len(row) != width:
                raise ValueError(
                    f"{path}: row {len(rows) + 1} (line {line}) has {len(row)} fields, "
                    f"expected {width}"
                )
            rows.append(row)
            row_lines.append(line)
            line = start + reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    columns = {col: [row[j] for row in rows] for j, col in enumerate(header)}
    return columns, row_lines


def _plain_table(lines: list[str], width: int) -> np.ndarray | None:
    """lines as an (n, width) float64 array, or None unless numpy can vouch for it.

    np.loadtxt without comments or quotes splits each line at every comma,
    as csv.reader does for a line without quotes, and converts each cell
    with PyOS_string_to_double, the parser float() ends in, so it gives the
    same bits.  What it refuses (quotes, underscores, non-ASCII digits, bad
    cells) is left to csv.reader.  It skips blank lines, which csv.reader
    gives as rows of no fields, so a body with one, or none at all, is left
    to csv.reader too; a row of another width shows as another shape.
    """
    if not lines or not all(lines):
        return None
    try:
        table = np.loadtxt(
            lines, dtype=np.float64, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    return table if table.shape == (len(lines), width) else None


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse {text!r} as a number") from None


def _load_data_csv(path: Path) -> Sample:
    """Read an estimate input: columns x, a, optional b, optional w."""
    _, header, lines, start = _read_head(path)
    table = _plain_table(lines, len(header))
    if table is None:
        columns, row_lines = _split_rows(path, header, lines, start)
    del lines
    allowed = {"x", "a", "b", "w"}
    unknown = [col for col in header if col not in allowed]
    if unknown:
        raise ValueError(f"{path}: unknown column {unknown[0]!r} (expected x, a, b, w)")
    for required in ("x", "a"):
        if required not in header:
            raise ValueError(f"{path}: missing required column {required!r}")
    if table is not None:
        arrays = dict(zip(header, table.T))
    elif not row_lines:
        raise ValueError(f"{path}: no data rows")
    else:
        # numpy converts str with float()'s syntax and rounding; only when it
        # fails are the cells scanned in row order to name the first bad one.
        try:
            arrays = {col: np.array(columns[col], dtype=np.float64) for col in header}
        except ValueError:
            for k, line in enumerate(row_lines):
                for col in header:
                    _parse_float(columns[col][k], f"{path}: row {k + 1} (line {line}), column {col!r}")
            raise
        del columns
    return Sample(
        x=arrays["x"],
        a=arrays["a"],
        b=arrays.get("b"),
        w_known=arrays.get("w"),
    )


def _content_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of each line of path that has text left once its ``#`` comment is cut."""
    with open(path) as fh:
        lines = [(idx, raw.split("#", 1)[0].strip()) for idx, raw in enumerate(fh, start=1)]
    return [(idx, text) for idx, text in lines if text]


def _load_contrast_file(path: Path, n: int) -> np.ndarray:
    lines = _content_lines(path)
    try:
        values = np.array([text for _, text in lines], dtype=np.float64)
    except ValueError:
        for idx, text in lines:
            _parse_float(text, f"{path}: line {idx}")
        raise
    if len(values) != n:
        raise ValueError(f"{path}: {len(values)} coefficients for {n} observations")
    return values


def _build_estimate_model(model_id: str, s: Sample, weights):
    if model_id == "sqrt":
        return sqrt_model(s.a, sigma=1.0, weights=weights)
    if model_id == "plinear":
        if s.b is None:
            raise ValueError("the plinear model needs a b column")
        from .montecarlo import plinear_g, plinear_g_prime, plinear_g_second

        return plinear_model(
            s.a, s.b, plinear_g, plinear_g_prime, sigma=1.0,
            weights=weights, g_second=plinear_g_second,
        )
    if model_id == "mm":
        if s.b is None:
            raise ValueError("the mm model needs a b column")
        return mm_model(s.a, s.b, sigma=1.0, weights=weights)
    raise ConfigError(f"model must be one of {ESTIMATE_MODELS}, got {model_id!r}")


def cmd_estimate(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    report = dict.fromkeys(["theta_star", "theta_hat", "d_star", "ci_lo", "ci_hi", "denominator"])
    warnings: list[str] = []
    degenerate = False
    try:
        s = _load_data_csv(Path(args.data))
        model = _build_estimate_model(args.model, s, s.w_known)
        fam, wf = to_families(model)
        update = resolve_pipeline(args.pipeline, model, fam, wf, newton_tol=1e-10)
        if not wf.h_prime_exact:
            warnings.append("weight derivative approximated numerically")
        if args.theta_start is not None:
            preliminary = lambda _: args.theta_start
        else:
            custom = (
                None if args.contrasts == "default"
                else _load_contrast_file(Path(args.contrasts), s.n)
            )
            preliminary = resolve_preliminary(model, s, custom)
        estimation_sequence(fam, wf, preliminary, update, args.pipeline, s, args.alpha, report)
    except _DEGENERATE_EXITS as exc:
        degenerate = True  # report what was computed before the failing step
        warnings.append(str(exc))
    report["warnings"] = "; ".join(warnings)
    _write_csv(out_path, "report", list(report), [report.values()])
    print(f"wrote {out_path}")
    return 2 if degenerate else 0


def _parse_config_file(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for idx, text in _content_lines(path):
        if "=" not in text:
            raise ConfigError(f"{path}: line {idx}: expected key = value")
        key, value = text.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}: line {idx}: expected key = value")
        if key in pairs:
            raise ConfigError(f"{path}: line {idx}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


_CONFIG_KEYS = {
    "model": str,
    "theta_true": float,
    "sigma": float,
    "noise": str,
    "n": int,
    "replications": int,
    "seed": int,
    "alpha": float,
    "pipeline": str,
    "covariates": str,
}


def _sim_config_from_file(path: Path) -> SimConfig:
    pairs = _parse_config_file(path)
    unknown = set(pairs) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    kwargs = {}
    for key, value in pairs.items():
        caster = _CONFIG_KEYS[key]
        try:
            kwargs[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"{path}: key {key!r}: cannot parse {value!r} as {caster.__name__}"
            ) from None
    for required in ("model", "theta_true", "sigma", "n", "replications", "seed"):
        if required not in kwargs:
            raise ConfigError(f"{path}: missing required key {required!r}")
    rename = {"model": "model_id", "covariates": "covariate_spec"}
    return SimConfig(**{rename.get(k, k): v for k, v in kwargs.items()})


def _config_digest(cfg: SimConfig) -> str:
    canonical = "\n".join(f"{k}={_fmt(v)}" for k, v in sorted(asdict(cfg).items()))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def _resolve_threads(flag_value: int) -> int:
    env = os.environ.get("ONESTEP_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"ONESTEP_THREADS is not an integer: {env!r}") from None
        if value < 1:
            raise ConfigError(f"ONESTEP_THREADS must be positive, got {value}")
        return value
    return flag_value


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _sim_config_from_file(Path(args.config))
    threads = _resolve_threads(args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _config_digest(cfg)
    written: list[Path] = []
    try:
        records, summary = run(cfg, threads=threads)
        valid_z = [rec.z for rec in records if not rec.degenerate]
        valid_z.sort()

        # records.csv and qq.csv hold ints, floats and flags alone (records
        # carry Python floats and bools): each row is one line, floats in
        # repr and flags as 1/0, as _fmt gives them
        path = out_dir / "records.csv"
        _write_lines(
            path,
            "records",
            ["rep", "theta_star", "theta_hat", "z", "z_stud", "covered", "degenerate"],
            (
                f"{r.rep},{r.theta_star!r},{r.theta_hat!r},{r.z!r},{r.z_stud!r},"
                f"{r.covered:d},{r.degenerate:d}\n"
                for r in records
            ),
            digest,
        )
        written.append(path)

        path = out_dir / "summary.csv"
        _write_csv(
            path,
            "summary",
            [
                "model", "n", "replications", "seed", "noise", "pipeline",
                "sigma", "theta_true", "alpha",
                "mean_z", "var_z", "ks_z", "ks_zstud", "coverage",
                "var_ratio", "mse_star", "mse_hat", "degenerate_count",
            ],
            [[
                cfg.model_id, cfg.n, cfg.replications, cfg.seed, cfg.noise, cfg.pipeline,
                cfg.sigma, cfg.theta_true, cfg.alpha,
                summary.mean_z, summary.var_z, summary.ks_z, summary.ks_zstud,
                summary.coverage, summary.var_ratio, summary.mse_star, summary.mse_hat,
                summary.degenerate_count,
            ]],
            digest,
        )
        written.append(path)

        m = len(valid_z)
        path = out_dir / "qq.csv"
        _write_lines(
            path,
            "qq",
            ["theoretical", "observed"],
            (f"{normal_quantile((i + 0.5) / m)!r},{z!r}\n" for i, z in enumerate(valid_z)),
            digest,
        )
        written.append(path)

        edges = np.linspace(-4.0, 4.0, 41)
        counts, _ = np.histogram(valid_z, bins=edges)
        path = out_dir / "hist.csv"
        _write_csv(
            path,
            "hist",
            ["bin_lo", "bin_hi", "count"],
            ([edges[k], edges[k + 1], int(counts[k])] for k in range(40)),
            digest,
        )
        written.append(path)

        manifest = {
            "config_path": str(args.config),
            "output_dir": str(out_dir),
            "tool_version": __version__,
            "config_digest": digest,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "python_version": sys.version.split()[0],
            "numpy_version": np.__version__,
            "threads": threads,
            "workers": worker_count(cfg, threads),
            "rows_per_block": rows_per_block(cfg.n),
            "heap": args.heap,
        }
        path = out_dir / "manifest.json"
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        written.append(path)
    except (EstimationError, ValueError, OSError):
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    print(
        f"wrote {out_dir}/records.csv, summary.csv, qq.csv, hist.csv, manifest.json "
        f"({summary.degenerate_count} degenerate)"
    )
    return 0


_COMPARISON_COLUMNS = [
    "model", "n", "ks_z", "ks_zstud", "coverage",
    "var_ratio", "mse_star", "mse_hat", "degenerate_count",
]


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    expected_schema = _schema_line("summary").split()[1]
    for name in args.summaries:
        path = Path(name)
        comments, header, lines, start = _read_head(path)
        columns, row_lines = _split_rows(path, header, lines, start)
        schemas = [c[1:].strip().split()[0] for c in comments if len(c) > 1]
        if expected_schema not in schemas:
            raise ValueError(
                f"{path}: not a {expected_schema} file (found {schemas or 'no schema line'})"
            )
        missing = [col for col in _COMPARISON_COLUMNS if col not in header]
        if missing:
            raise ValueError(f"{path}: missing column {missing[0]!r}")
        if not row_lines:
            raise ValueError(f"{path}: no summary row")
        rows.append([columns[col][0] for col in _COMPARISON_COLUMNS])
    out_path = Path(args.out)
    _write_csv(out_path, "comparison", _COMPARISON_COLUMNS, rows)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onestep",
        description="One-step weighted estimation for nonlinear regression models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate from a CSV file (columns x, a[, b][, w])")
    p_est.add_argument("data", help="input CSV path")
    p_est.add_argument("--model", required=True, choices=ESTIMATE_MODELS)
    p_est.add_argument("--pipeline", default="one_step_weighted", choices=PIPELINES)
    p_est.add_argument("--alpha", type=float, default=0.05, help="interval miss level")
    p_est.add_argument(
        "--contrasts",
        default="default",
        help="'default' or a file with one coefficient per line",
    )
    p_est.add_argument("--theta-start", type=float, default=None, help="override the preliminary")
    p_est.add_argument("--out", default="report.csv", help="output CSV path")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a simulation campaign from a config file")
    p_sim.add_argument("config", help="key = value config file")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument(
        "--threads", type=int, default=1,
        help="worker processes (ONESTEP_THREADS overrides)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="combine summary.csv files into a comparison table")
    p_rep.add_argument("summaries", nargs="+", help="summary.csv paths")
    p_rep.add_argument("--out", default="comparison.csv", help="output CSV path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _keep_heap_pages() -> dict[str, int] | None:
    """Pin this process's malloc mmap and trim thresholds; forked workers inherit them.

    Returns the thresholds set, or None where the C library has no mallopt
    (as on macOS and Windows) or refuses a value; the allocator then keeps
    its own policy.  Outputs are the same either way.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # -3 is M_MMAP_THRESHOLD and -1 M_TRIM_THRESHOLD; mallopt returns 0 on failure
    if not (mallopt(-3, _MMAP_THRESHOLD) and mallopt(-1, _TRIM_THRESHOLD)):
        return None
    return {"mmap_threshold": _MMAP_THRESHOLD, "trim_threshold": _TRIM_THRESHOLD}


def main(argv: list[str] | None = None) -> int:
    heap = _keep_heap_pages()
    # csv.reader refuses a cell over 131,072 characters by default, while
    # np.loadtxt takes any length; lifted, a long cell np.loadtxt refuses is
    # read or named as a short one would be.  2**31 - 1 fits every C long.
    csv.field_size_limit(2**31 - 1)
    # What is alive now (modules, numpy's tables) lives until exit: moved to
    # the permanent generation, no collection walks it again, the one at
    # interpreter exit included
    gc.freeze()
    args = build_parser().parse_args(argv)
    args.heap = heap
    # Subcommands raise; a failure of any of them, reading or writing, is reported here alone
    try:
        # Every step raises a named error on non-finite terms, so numpy's overflow
        # warnings would only print ahead of the one error line (forked workers inherit this)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
