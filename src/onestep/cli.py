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
import codecs
import csv
import ctypes
import gc
import importlib
import os
import sys
from dataclasses import MISSING, asdict, fields
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from . import __version__
from .core import Sample, run_forked, usable_cpus
from .errors import (
    ConfigError,
    DegenerateError,
    EstimationError,
    NoConvergenceError,
    ZeroVarianceError,
)
from .regression import (
    PIPELINES,
    estimation_sequence,
    mm_model,
    plinear_g,
    plinear_g_prime,
    plinear_g_second,
    plinear_model,
    resolve_preliminary,
    sqrt_model,
    to_families,
)

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from .montecarlo import SimConfig

SCHEMA_PREFIX = "onestep"
SCHEMA_VERSION = "v1"

ESTIMATE_MODELS = ("sqrt", "plinear", "mm")

_DEGENERATE_EXITS = (DegenerateError, NoConvergenceError, ZeroVarianceError)

# Modules only simulate runs, left out of this module's imports so that
# estimate and report do not load them; main imports them first for simulate.
_SIMULATE_MODULES = ("datetime", "hashlib", "json", "onestep.montecarlo")

# A cell or value longer than this is quoted in an error line by its start and its length
_QUOTE_LIMIT = 32

# estimate reads its CSV this many bytes at a time: small against a large
# file, so that one chunk's text and line strings weigh less than the table
# being built, whose converted parts and their join then set the peak.
_CHUNK_BYTES = 1 << 18

# estimate converts a seekable file in shares of at least this many bytes,
# one per usable CPU.  On x86-64 with numpy 2.4, a fork, its pipe and its
# reaping took about 4 ms, and converting a plain file took about 19 ns a
# byte: a share converts in about 20 ms, five times what forking it costs.
_MIN_SHARE_BYTES = 1 << 20

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


def _split_head(
    path: Path, chunks: Iterator[list[str]]
) -> tuple[list[str], list[str], list[str], int]:
    """(comment lines, header, the lines after the header, the number of file lines before them).

    The lines are those of chunks up to the end of the one that holds the
    header, or of all of them when the header holds a quote, since a quoted
    cell may hold line breaks; the chunks after those are left in chunks.
    """
    lines: list[str] = []
    skip = 0
    for chunk in chunks:
        lines += chunk
        while skip < len(lines) and lines[skip].startswith("#"):
            skip += 1
        if skip < len(lines):
            if '"' in lines[skip]:
                lines += chain.from_iterable(chunks)
            break
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
    path: Path, header: list[str], lines: Iterable[str], start: int, done: int = 0
) -> tuple[dict[str, list[str]], list[int]]:
    """The csv.reader cells of lines, by column, and the file line number of each row.

    lines follow the file's first start lines, which hold done data rows.  A
    row of the wrong width, or a file csv.reader refuses, raises ValueError
    naming the file.
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
                    f"{path}: row {done + len(rows) + 1} (line {line}) has {len(row)} fields, "
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
    gives as rows of no fields, so lines with one are left to csv.reader
    too; a row of another width shows as another shape.  lines is not empty.
    """
    if not all(lines):
        return None
    try:
        table = np.loadtxt(
            lines, dtype=np.float64, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    return table if table.shape == (len(lines), width) else None


def _quote(text: str) -> str:
    """repr of text, cut to its first _QUOTE_LIMIT characters and its length when longer."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse {_quote(text)} as a number") from None


def _line_chunks(fh, start: int | None = None, stop: int | None = None):
    """The lines of text file fh as str.splitlines gives them, in lists of about _CHUNK_BYTES bytes.

    fh's bytes are read _CHUNK_BYTES at a time, a pipe as a file, and
    decoded with fh.encoding by an incremental decoder.  Every list but the
    last ends after a "\n", or after a "\r" that was not the last character
    decoded, so no line, nor a "\r\n", is split between two lists: together
    they are the lines of the whole text.  An undecodable byte raises the
    UnicodeDecodeError a whole read would, its position counted from the
    start of the input.

    Given a start, fh is a seekable file and only its bytes from start up
    to stop (its end when None) are read, by os.pread, so fh's offset,
    which forked processes share, stays where it is.  Otherwise fh.buffer
    is read from where it stands.
    """
    decoder = codecs.getincrementaldecoder(fh.encoding)(fh.errors)
    carry = ""
    done = start or 0  # bytes of the input before this block
    if start is None:
        read = fh.buffer.read
    else:
        fd = fh.fileno()
        read = lambda size: os.pread(fd, size, done)  # at done as it stands at the call
    while True:
        block = read(_CHUNK_BYTES if stop is None else min(_CHUNK_BYTES, stop - done))
        last = not block
        try:
            text = decoder.decode(block, final=last)
        except UnicodeDecodeError as exc:
            # the decoder failed on the bytes it held and block, which start this far in
            at = done - len(decoder.getstate()[0])
            raise UnicodeDecodeError(
                exc.encoding, bytes(at) + exc.object, at + exc.start, at + exc.end, exc.reason
            ) from None
        done += len(block)
        del block  # only the text is held while its lines are used
        cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        if cut:
            yield (carry + text[:cut]).splitlines()
            carry = text[cut:]
        else:
            carry += text
        if last:
            break
    if carry:
        yield carry.splitlines()


def _share_starts(fh) -> list[int]:
    """The byte offsets at which the shares of fh after the first start, in order.

    One share per usable CPU, none under _MIN_SHARE_BYTES: each but the
    first starts just after the first "\n" byte at or past its equal part of
    the file and past fh.buffer.tell(), the bytes the head was read from,
    so the first share holds the head whatever its length.  A "\n" in UTF-8
    ends a character and is a str.splitlines boundary.  Empty, for one
    share, on a host without os.fork and for an input that is not a
    seekable UTF-8 file, such as a pipe.  Where no "\n" follows a part's
    start (as in a file of lone "\r" line ends), no share starts there or
    after.
    """
    if not (hasattr(os, "fork") and fh.seekable()) or codecs.lookup(fh.encoding).name != "utf-8":
        return []
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    starts = [fh.buffer.tell()]
    shares = min(usable_cpus(), size // _MIN_SHARE_BYTES)
    for k in range(1, shares):
        at = max(k * size // shares, starts[-1])
        while (block := os.pread(fd, _CHUNK_BYTES, at)) and b"\n" not in block:
            at += len(block)
        cut = at + block.index(b"\n") + 1 if block else size
        if cut == size:
            break
        starts.append(cut)
    return starts[1:]


class _Refused(Exception):
    """A share holds a chunk _plain_table refuses or that does not decode: the table before it."""


def _share_table(fh, width: int, start: int, stop: int | None, skip: int) -> np.ndarray:
    """The table of fh's lines from byte start to stop, after their first skip lines.

    Raises _Refused at the first chunk that _plain_table refuses or that
    does not decode.  It holds the table of the lines converted before that
    chunk and no byte of the input: the UnicodeDecodeError, which holds as
    many bytes as precede the byte, is raised again where the input is read
    on from there.
    """
    parts = [np.empty((0, width))]
    try:
        for lines in _line_chunks(fh, start, stop):
            lines, skip = lines[skip:], max(skip - len(lines), 0)
            if lines:
                if (table := _plain_table(lines, width)) is None:
                    raise _Refused(np.concatenate(parts))
                parts.append(table)
            del lines  # this chunk's strings go before the next chunk is read
    except UnicodeDecodeError:
        raise _Refused(np.concatenate(parts)) from None
    return np.concatenate(parts)


def _read_table(
    path: Path, fh
) -> tuple[list[str], list[np.ndarray], dict[str, list[str]], list[int]]:
    """(header, the tables _plain_table converts, then _split_rows of the rest of fh).

    The head, comments and header, is read first, in one process.  Then
    the chunks of lines after it go to _plain_table until it refuses one;
    that chunk and the rest of the input go to csv.reader.  A file cut in
    shares (_share_starts) has each converted by _share_table: the first,
    which skips the head, in this process, and each later one in a forked
    child (core.run_forked).  A refusal in the first share kills the
    children.  From the first share that does not send a whole table, the
    tables it converted are kept and its lines past them and the rest of
    the input go to csv.reader, in this process; the tables of the shares
    after it are dropped.  So tables, rows, line numbers and errors are
    those of a read in one process.
    """
    chunks = _line_chunks(fh)
    _, header, lines, start = _split_head(path, chunks)
    width = len(header)
    parts: list[np.ndarray] = []
    if starts := _share_starts(fh):
        del lines, chunks  # the head chunk's strings go: each share reads its own bytes
        shares = list(zip([0, *starts], [*starts, None], [start] + [0] * len(starts)))
        try:
            sent = run_forked([partial(_share_table, fh, width, *share) for share in shares])
        except _Refused as exc:
            sent = [exc]
        for (share_start, _, skip), table in zip(shares, sent):
            if isinstance(table, Exception):
                break
            parts.append(table.reshape(-1, width))
        else:
            return header, parts, {}, []
        if isinstance(table, _Refused):
            [table] = table.args
            parts.append(table)
            skip += len(table)
        del sent, table  # the tables of the shares after this one go
        rest = islice(chain.from_iterable(_line_chunks(fh, share_start)), skip, None)
    else:
        # the header's chunk may hold no line after it; no later chunk is empty
        while lines or (lines := next(chunks, [])):
            if (table := _plain_table(lines, width)) is None:
                break
            parts.append(table)
            lines = []  # this chunk's strings go before the next chunk is read
        else:
            return header, parts, {}, []
        rest = chain(lines, chain.from_iterable(chunks))
    done = sum(map(len, parts))
    return header, parts, *_split_rows(path, header, rest, start + done, done)


def _load_data_csv(path: Path) -> Sample:
    """Read an estimate input: columns x, a, optional b, optional w.

    The input, a file or a pipe, is read once, by _read_table: in bounded
    memory while its lines are plain, through csv.reader from the first
    chunk that is not, and a large seekable UTF-8 file on every usable CPU.
    The columns are the rows of one frozen array, which Sample and the model
    factories take without a copy.
    """
    with open(path) as fh:
        header, parts, columns, row_lines = _read_table(path, fh)
    allowed = {"x", "a", "b", "w"}
    unknown = [col for col in header if col not in allowed]
    if unknown:
        raise ValueError(f"{path}: unknown column {unknown[0]!r} (expected x, a, b, w)")
    for required in ("x", "a"):
        if required not in header:
            raise ValueError(f"{path}: missing required column {required!r}")
    if row_lines:
        # numpy converts str with float()'s syntax and rounding; only when it
        # fails are the cells scanned in row order to name the first bad one.
        try:
            parts.append(np.array([columns[col] for col in header], dtype=np.float64).T)
        except ValueError:
            done = sum(map(len, parts))
            for k, line in enumerate(row_lines):
                for col in header:
                    where = f"{path}: row {done + k + 1} (line {line}), column {col!r}"
                    _parse_float(columns[col][k], where)
            raise
        del columns
    elif not parts:
        raise ValueError(f"{path}: no data rows")
    table = np.concatenate([part.T for part in parts], axis=1)  # (width, n), rows contiguous
    del parts  # the converted parts go before the columns are used
    table.flags.writeable = False
    arrays = dict(zip(header, table))
    return Sample(x=arrays["x"], a=arrays["a"], b=arrays.get("b"), w_known=arrays.get("w"))


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
        if args.theta_start is not None:
            preliminary = lambda _: args.theta_start
        else:
            def preliminary(s):  # resolved after estimation_sequence checks the pipeline
                custom = (
                    None if args.contrasts == "default"
                    else _load_contrast_file(Path(args.contrasts), s.n)
                )
                return resolve_preliminary(model, s, custom)(s)
        estimation_sequence(
            model, fam, wf, preliminary, args.pipeline, s, args.alpha, report, newton_tol=1e-10
        )
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


def _sim_config_from_file(path: Path) -> SimConfig:
    from .montecarlo import SimConfig, config_key

    pairs = _parse_config_file(path)
    keys = {config_key(f): f for f in fields(SimConfig)}
    unknown = set(pairs) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    parsers = get_type_hints(SimConfig)
    kwargs = {}
    for key, value in pairs.items():
        name = keys[key].name
        try:
            kwargs[name] = parsers[name](value)
        except ValueError:
            raise ConfigError(
                f"{path}: key {key!r}: cannot parse {_quote(value)} as {parsers[name].__name__}"
            ) from None
    for key, f in keys.items():
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return SimConfig(**kwargs)


def _config_digest(cfg: SimConfig) -> str:
    import hashlib

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


def _libc_version() -> str | None:
    """The C library and its version as glibc reports them, or None where it does not."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None


def cmd_simulate(args: argparse.Namespace) -> int:
    import json
    from datetime import datetime, timezone

    from .montecarlo import rows_per_block, run, worker_count
    from .normal import normal_quantile

    cfg = _sim_config_from_file(Path(args.config))
    threads = _resolve_threads(args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _config_digest(cfg)
    records, summary = run(cfg, threads=threads)
    valid_z = sorted(rec.z for rec in records if not rec.degenerate)
    m = len(valid_z)
    edges = np.linspace(-4.0, 4.0, 41).tolist()
    counts, _ = np.histogram(valid_z, bins=edges)
    row = {
        "model": cfg.model_id, "n": cfg.n, "replications": cfg.replications,
        "seed": cfg.seed, "noise": cfg.noise, "pipeline": cfg.pipeline,
        "sigma": cfg.sigma, "theta_true": cfg.theta_true, "alpha": cfg.alpha,
        **asdict(summary),
    }
    manifest = {
        "config_path": str(args.config),
        "output_dir": str(out_dir),
        "tool_version": __version__,
        "config_digest": digest,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "libc": _libc_version(),
        "threads": threads,
        "workers": worker_count(cfg, threads),
        "rows_per_block": rows_per_block(cfg.n),
        "heap": args.heap,
    }
    # No cell needs quoting: ints, floats, 1/0 flags, words of MODEL_IDS, NOISE_KINDS or PIPELINES
    tables = {
        "records": (
            ["rep", "theta_star", "theta_hat", "z", "z_stud", "covered", "degenerate"],
            (
                f"{r.rep},{r.theta_star!r},{r.theta_hat!r},{r.z!r},{r.z_stud!r},"
                f"{r.covered:d},{r.degenerate:d}\n"
                for r in records
            ),
        ),
        "summary": (list(row), [",".join(map(_fmt, row.values())) + "\n"]),
        "qq": (
            ["theoretical", "observed"],
            (f"{normal_quantile((i + 0.5) / m)!r},{z!r}\n" for i, z in enumerate(valid_z)),
        ),
        "hist": (
            ["bin_lo", "bin_hi", "count"],
            (f"{lo!r},{hi!r},{c}\n" for lo, hi, c in zip(edges, edges[1:], counts.tolist())),
        ),
    }
    # A path is listed as soon as open makes it: a failure, mid-write included,
    # removes every file this run opened and none that it could not open
    written: list[Path] = []
    try:
        for name, (header, lines) in tables.items():
            path = out_dir / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                written.append(path)
                _start_csv(fh, name, header, digest)
                fh.writelines(lines)
        path = out_dir / "manifest.json"
        with open(path, "w") as fh:
            written.append(path)
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    print(
        f"wrote {out_dir}/{', '.join(p.name for p in written)} "
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
        with open(path, newline="") as fh:
            comments, header, lines, start = _split_head(path, iter([fh.read().splitlines()]))
        columns, row_lines = _split_rows(path, header, lines, start)
        schemas = [w for c in comments for w in c[1:].split()[:1]]
        if expected_schema not in schemas:
            raise ValueError(
                f"{path}: not a {expected_schema} file (found {schemas or 'no schema line'})"
            )
        missing = [col for col in _COMPARISON_COLUMNS if col not in header]
        if missing:
            raise ValueError(f"{path}: missing column {missing[0]!r}")
        if not row_lines:
            raise ValueError(f"{path}: no summary row")
        rows.extend(zip(*(columns[col] for col in _COMPARISON_COLUMNS)))
    out_path = Path(args.out)
    _write_csv(out_path, "comparison", _COMPARISON_COLUMNS, rows)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onestep",
        description="One-step weighted estimation for nonlinear regression models.",
    )
    parser.set_defaults(modules=())
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
    p_sim.set_defaults(func=cmd_simulate, modules=_SIMULATE_MODULES)

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
    args = build_parser().parse_args(argv)
    args.heap = heap
    for name in args.modules:
        importlib.import_module(name)
    # What is alive now (the subcommand's modules, numpy's tables) lives until
    # exit: moved to the permanent generation, no collection walks it again,
    # the one at interpreter exit included
    gc.freeze()
    # Subcommands raise; a failure of any of them, reading or writing, is reported here alone
    try:
        # Every step raises a named error on non-finite terms, so numpy's overflow
        # warnings would only print ahead of the one error line (forked workers inherit this)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
