"""End-to-end tests for the command-line interface."""

import argparse
import csv
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from onestep import cli, montecarlo
from onestep.errors import ConfigError
from onestep.montecarlo import PIPELINES, SimConfig, rows_per_block
from onestep import (
    Sample,
    default_contrasts,
    mm_model,
    one_step_weighted,
    preliminary_mm,
    preliminary_plinear,
    studentize,
    to_families,
)


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "onestep", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_mm_data(path: Path):
    path.write_text("x,a,b\n1.1,2.0,1.0\n0.9,3.0,2.0\n")
    return Sample(x=[1.1, 0.9], a=[2.0, 3.0], b=[1.0, 2.0])


def read_report(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# onestep/report/v1"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 1
    return rows[0]


def write_config(path: Path, **overrides):
    pairs = {
        "model": "mm",
        "theta_true": 1.0,
        "sigma": 0.05,
        "n": 30,
        "replications": 40,
        "seed": 9,
    }
    pairs.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))


def test_estimate_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "report.csv"
    s = write_mm_data(data)
    cp = run_cli("estimate", data, "--model", "mm", "--out", out)
    assert cp.returncode == 0, cp.stderr

    # recompute in process; every reported float must round-trip exactly
    model = mm_model(s.a, s.b, sigma=1.0)
    fam, wf = to_families(model)
    ts = preliminary_mm(np.ones(2), s)
    res = one_step_weighted(fam, wf, ts, s)
    d_star, ci = studentize(fam, wf, ts, res.theta_hat, s, 0.05)

    row = read_report(out)
    assert row["theta_star"] == repr(ts)
    assert row["theta_hat"] == repr(res.theta_hat)
    assert row["d_star"] == repr(d_star)
    assert row["ci_lo"] == repr(ci[0])
    assert row["ci_hi"] == repr(ci[1])
    assert row["denominator"] == repr(res.denominator)
    assert row["warnings"] == ""
    assert float(row["theta_star"]) == ts


def test_estimate_theta_start_override(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "report.csv"
    write_mm_data(data)
    cp = run_cli(
        "estimate", data, "--model", "mm", "--theta-start", "1.0", "--out", out
    )
    assert cp.returncode == 0, cp.stderr
    assert read_report(out)["theta_star"] == "1.0"


def test_estimate_contrast_file(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "report.csv"
    s = write_mm_data(data)
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("2.0\n1.0  # trailing comment\n")
    cp = run_cli(
        "estimate", data, "--model", "mm", "--contrasts", cfile, "--out", out
    )
    assert cp.returncode == 0, cp.stderr
    expected = preliminary_mm(np.array([2.0, 1.0]), s)
    assert read_report(out)["theta_star"] == repr(expected)


def test_estimate_pipeline_variants(tmp_path):
    data = tmp_path / "data.csv"
    write_mm_data(data)
    hats = {}
    for pipeline in ("one_step_weighted", "mm_closed_form", "newton_oracle"):
        out = tmp_path / f"{pipeline}.csv"
        cp = run_cli(
            "estimate", data, "--model", "mm", "--pipeline", pipeline, "--out", out
        )
        assert cp.returncode == 0, cp.stderr
        row = read_report(out)
        hats[pipeline] = float(row["theta_hat"])
        if pipeline in ("mm_closed_form", "newton_oracle"):
            # these pipelines have no single Newton denominator to report
            assert row["denominator"] == "nan"
    assert hats["one_step_weighted"] != hats["mm_closed_form"]


def test_estimate_missing_column(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,q\n1.0,2.0\n")
    cp = run_cli("estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert "'q'" in cp.stderr


def test_estimate_required_column(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1.0,2.0\n")
    cp = run_cli("estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert "'x'" in cp.stderr


def test_estimate_bad_cell(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1.1,2.0,1.0\n0.9,oops,2.0\n")
    cp = run_cli("estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert "row 2" in cp.stderr and "'a'" in cp.stderr and "oops" in cp.stderr


def test_estimate_missing_file(tmp_path):
    cp = run_cli(
        "estimate", tmp_path / "nope.csv", "--model", "mm", "--out", tmp_path / "r.csv"
    )
    assert cp.returncode == 1
    assert "nope.csv" in cp.stderr


def test_estimate_mm_needs_b_column(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,a\n1.1,2.0\n0.9,3.0\n")
    cp = run_cli("estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert "b column" in cp.stderr


def test_estimate_degenerate_exit(tmp_path):
    # an exact fit leaves no residual variance: the studentizer cannot be
    # formed, the report is partial, and the exit code distinguishes the case
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1.0,2.0,1.0\n2.0,4.0,1.0\n")
    out = tmp_path / "report.csv"
    cp = run_cli("estimate", data, "--model", "mm", "--out", out)
    assert cp.returncode == 2
    row = read_report(out)
    assert row["theta_star"] == "1.0"
    assert row["theta_hat"] == "1.0"
    assert row["d_star"] == ""
    assert "variance sum is zero" in row["warnings"]


def test_simulate_outputs(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile)
    outdir = tmp_path / "out"
    cp = run_cli("simulate", cfgfile, "--out", outdir)
    assert cp.returncode == 0, cp.stderr

    records = (outdir / "records.csv").read_text().splitlines()
    assert records[0].startswith("# onestep/records/v1 config=")
    digest = records[0].split("config=")[1]
    assert len(digest) == 16
    assert len(records) == 2 + 40  # schema line, header, one row per replication

    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == f"# onestep/summary/v1 config={digest}"
    header = summary[1].split(",")
    row = dict(zip(header, summary[2].split(",")))
    assert row["model"] == "mm"
    assert row["n"] == "30"
    assert float(row["ks_z"]) > 0.0
    assert row["degenerate_count"] == "0"

    qq = (outdir / "qq.csv").read_text().splitlines()
    assert qq[0] == f"# onestep/qq/v1 config={digest}"
    assert len(qq) == 2 + 40
    first = qq[2].split(",")
    assert float(first[0]) < -2.0  # leftmost theoretical quantile

    hist = (outdir / "hist.csv").read_text().splitlines()
    assert hist[0] == f"# onestep/hist/v1 config={digest}"
    assert len(hist) == 2 + 40  # fixed 40-bin layout
    counts = [int(line.split(",")[2]) for line in hist[2:]]
    assert sum(counts) <= 40

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config_digest"] == digest
    assert manifest["tool_version"]
    assert manifest["config_path"] == str(cfgfile)
    # provenance follows the original keys, which keep their order
    assert list(manifest)[:5] == [
        "config_path", "output_dir", "tool_version", "config_digest", "created_utc",
    ]
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["threads"] == 1
    assert manifest["workers"] == 1
    assert manifest["rows_per_block"] == rows_per_block(30)
    assert list(manifest)[-1] == "heap"
    if platform.libc_ver()[0] == "glibc":
        assert manifest["heap"] == {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def test_simulate_reruns_identically(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile)
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert run_cli("simulate", cfgfile, "--out", out1).returncode == 0
    assert run_cli("simulate", cfgfile, "--out", out2).returncode == 0
    assert (
        run_cli(
            "simulate", cfgfile, "--out", out3, env_extra={"ONESTEP_THREADS": "4"}
        ).returncode
        == 0
    )
    for name in ("records.csv", "summary.csv", "qq.csv", "hist.csv"):
        bytes1 = (out1 / name).read_bytes()
        assert bytes1 == (out2 / name).read_bytes()
        assert bytes1 == (out3 / name).read_bytes()


def test_simulate_outputs_do_not_depend_on_worker_processes(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile, n=2**13, replications=10)  # blocks of 4, 4 and 2
    outputs = {}
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        assert run_cli("simulate", cfgfile, "--out", out, "--threads", threads).returncode == 0
        outputs[threads] = [
            (out / name).read_bytes() for name in ("records.csv", "summary.csv", "qq.csv", "hist.csv")
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == threads
        assert manifest["workers"] == min(threads, 3, os.cpu_count() or 1)
    assert outputs[1] == outputs[2] == outputs[3]


def test_simulate_digest_tracks_config(tmp_path):
    cfg_a = tmp_path / "a.cfg"
    cfg_b = tmp_path / "b.cfg"
    write_config(cfg_a)
    write_config(cfg_b, seed=10)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", cfg_a, "--out", out_a).returncode == 0
    assert run_cli("simulate", cfg_b, "--out", out_b).returncode == 0
    digest_a = (out_a / "records.csv").read_text().splitlines()[0]
    digest_b = (out_b / "records.csv").read_text().splitlines()[0]
    assert digest_a != digest_b


def test_simulate_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = mm\nwidgets = 3\n")
    cp = run_cli("simulate", bad, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "widgets" in cp.stderr

    missing = tmp_path / "missing.cfg"
    missing.write_text("model = mm\ntheta_true = 1.0\n")
    cp = run_cli("simulate", missing, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "missing required key" in cp.stderr

    dupe = tmp_path / "dupe.cfg"
    dupe.write_text("model = mm\nmodel = sqrt\n")
    cp = run_cli("simulate", dupe, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "duplicate" in cp.stderr

    unparsable = tmp_path / "unparsable.cfg"
    write_config(unparsable, n="many")
    cp = run_cli("simulate", unparsable, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "'n'" in cp.stderr and "many" in cp.stderr

    badthreads = tmp_path / "ok.cfg"
    write_config(badthreads)
    cp = run_cli(
        "simulate", badthreads, "--out", tmp_path / "o",
        env_extra={"ONESTEP_THREADS": "zero"},
    )
    assert cp.returncode == 1
    assert "ONESTEP_THREADS" in cp.stderr

    outside = tmp_path / "outside.cfg"
    write_config(outside, model="sqrt", theta_true=-5.0)
    cp = run_cli("simulate", outside, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert cp.stderr == "error: parameter -5.0 outside domain (-0.4, inf)\n"


def test_estimate_and_simulate_accept_the_same_pipelines(tmp_path, capsys):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = next(a.choices for a in sub.choices["estimate"]._actions if a.dest == "pipeline")
    assert sorted(accepted) == sorted(PIPELINES)
    for name in PIPELINES:
        SimConfig(model_id="mm", theta_true=1.0, sigma=0.1, n=10, replications=1, seed=1, pipeline=name)
    with pytest.raises(ConfigError):
        SimConfig(model_id="mm", theta_true=1.0, sigma=0.1, n=10, replications=1, seed=1,
                  pipeline="gradient_descent")

    data = tmp_path / "data.csv"
    data.write_text("x,a\n1.4,1.0\n2.1,3.0\n")
    code, err = run_in_process(
        capsys, "estimate", data, "--model", "sqrt", "--pipeline", "mm_closed_form",
        "--out", tmp_path / "r.csv",
    )
    assert code == 1
    assert "error: the closed-form pipeline applies to the mm model only" in err


def test_report_combines_summaries(tmp_path):
    for seed, name in ((9, "a"), (10, "b")):
        cfgfile = tmp_path / f"{name}.cfg"
        write_config(cfgfile, seed=seed)
        assert run_cli("simulate", cfgfile, "--out", tmp_path / name).returncode == 0
    out = tmp_path / "comparison.csv"
    cp = run_cli(
        "report", tmp_path / "a" / "summary.csv", tmp_path / "b" / "summary.csv",
        "--out", out,
    )
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "# onestep/comparison/v1"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 2
    # cells are copied byte for byte from the source summaries
    src = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    src_row = dict(zip(src[1].split(","), src[2].split(",")))
    assert rows[0]["ks_z"] == src_row["ks_z"]
    assert rows[0]["mse_hat"] == src_row["mse_hat"]


def test_report_rejects_wrong_schema(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile)
    outdir = tmp_path / "out"
    assert run_cli("simulate", cfgfile, "--out", outdir).returncode == 0
    cp = run_cli(
        "report", outdir / "records.csv", "--out", tmp_path / "comparison.csv"
    )
    assert cp.returncode == 1
    assert "records.csv" in cp.stderr


def test_report_rejects_missing_file(tmp_path):
    cp = run_cli("report", tmp_path / "ghost.csv", "--out", tmp_path / "c.csv")
    assert cp.returncode == 1
    assert "ghost.csv" in cp.stderr


def run_in_process(capsys, *args):
    """Run the command line in this process; returns (exit code, stderr)."""
    code = cli.main([str(a) for a in args])
    return code, capsys.readouterr().err


def test_estimate_rejects_duplicate_column(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x,x,a,b\n1.1,1.1,2.0,1.0\n0.9,0.9,3.0,2.0\n")
    code, err = run_in_process(capsys, "estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert code == 1
    assert f"{data}: duplicate column 'x'" in err


def test_blank_body_gives_one_error_line_and_no_warning(tmp_path):
    # np.loadtxt warns on input without data; the reader must not hand it one
    data = tmp_path / "data.csv"
    data.write_text("x,a\n\n\n")
    cp = run_cli("estimate", data, "--model", "sqrt", "--out", tmp_path / "r.csv")
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr == f"error: {data}: row 1 (line 2) has 0 fields, expected 2\n"


def test_report_rejects_duplicate_column(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    header = ["model", "model", *cli._COMPARISON_COLUMNS[1:]]
    summary.write_text(
        "# onestep/summary/v1\n" + ",".join(header) + "\n" + ",".join(["mm"] * len(header)) + "\n"
    )
    code, err = run_in_process(capsys, "report", summary, "--out", tmp_path / "c.csv")
    assert code == 1
    assert f"{summary}: duplicate column 'model'" in err
    assert not (tmp_path / "c.csv").exists()


def test_oversized_cells_are_read_or_named(tmp_path, capsys):
    # Cells past csv.reader's default limit of 131072 characters, which
    # np.loadtxt refuses, are read or named as short ones would be
    cases = [
        ("1_" + "0" * 140000, "error: x contains non-finite entries\n"),
        ("1" * 140000 + "z", None),
    ]
    for k, (cell, message) in enumerate(cases):
        data = tmp_path / f"data{k}.csv"
        data.write_text(f"x,a\n1,2\n{cell},3\n")
        code, err = run_in_process(capsys, "estimate", data, "--model", "sqrt", "--out", tmp_path / "r.csv")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == (message or f"error: {data}: row 2 (line 3), column 'x': cannot parse {cell!r} as a number\n")
    assert not (tmp_path / "r.csv").exists()

    big = '"' + "1" * 140000 + '"'
    summary = tmp_path / "summary.csv"
    summary.write_text(
        "# onestep/summary/v1\n" + ",".join(cli._COMPARISON_COLUMNS) + "\n"
        + ",".join([big] * len(cli._COMPARISON_COLUMNS)) + "\n"
    )
    code, err = run_in_process(capsys, "report", summary, "--out", tmp_path / "c.csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader((tmp_path / "c.csv").read_text().splitlines()[2:]))
    assert rows == [["1" * 140000] * len(cli._COMPARISON_COLUMNS)]


@pytest.mark.parametrize(
    "text, message",
    [
        # a blank line is a data row with no fields
        ("x,a,b\n1.1,2.0,1.0\n\n0.9,3.0,2.0\n", "row 2 (line 3) has 0 fields, expected 3"),
        ("x\n1.1\n\n0.9\n", "row 2 (line 3) has 0 fields, expected 1"),
        ("x,a,b\n1.1,2.0,1.0\n0.9,3.0\n", "row 2 (line 3) has 2 fields, expected 3"),
        # comment lines count as file lines but not as rows
        ("# note\n#\nx,a,b\n1.1,2.0,1.0\n0.9,3.0\n", "row 2 (line 5) has 2 fields, expected 3"),
        ("# note\nx,a,b\n1.1,2.0,1.0\n0.9,oops,2.0\n", "row 2 (line 4), column 'a': cannot parse 'oops'"),
    ],
)
def test_estimate_row_numbering(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    code, err = run_in_process(capsys, "estimate", data, "--model", "mm", "--out", tmp_path / "r.csv")
    assert code == 1
    assert f"{data}: {message}" in err


def test_contrast_file_bad_coefficient_names_its_line(tmp_path):
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("# header\n2.0\n\n1.0x  # typo\n")
    with pytest.raises(ValueError, match=r"contrasts\.txt: line 4: cannot parse '1\.0x'"):
        cli._load_contrast_file(cfile, 2)


def test_overflowing_contrasts_give_one_error_line(tmp_path):
    # the overflowing terms raise NonFiniteError; numpy's overflow warning
    # must not reach stderr ahead of it
    data = tmp_path / "data.csv"
    write_mm_data(data)
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("1e308\n1e308\n")
    cp = run_cli("estimate", data, "--model", "mm", "--contrasts", cfile, "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert cp.stderr == "error: non-finite value in numerator terms\n"


def test_huge_sum_zero_contrasts_give_one_error_line(tmp_path):
    # sum |c| overflows a double; the sum-zero test must not let fsum's
    # OverflowError out, and the overflowing terms then raise NonFiniteError
    data = tmp_path / "data.csv"
    data.write_text("x,a\n1.5,1.0\n2.0,2.0\n2.5,3.0\n")
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("1e308\n-1e308\n0\n")
    cp = run_cli("estimate", data, "--model", "sqrt", "--contrasts", cfile, "--out", tmp_path / "r.csv")
    assert cp.returncode == 1
    assert cp.stderr == "error: non-finite value in numerator terms\n"


def test_contrast_terms_whose_magnitudes_overflow_are_degenerate(tmp_path):
    # the denominator terms 8e307, 8e307, -1.6e308 sum to zero, and the sum of
    # their magnitudes passes the largest double: the degeneracy tolerance
    # must stay finite rather than let fsum's OverflowError out
    data = tmp_path / "data.csv"
    data.write_text(
        "x,a\n" + "".join(f"{math.sqrt(v)!r},1\n" for v in (3.0, 2.0, 1.5))
    )
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("8e307\n8e307\n-1.6e308\n")
    out = tmp_path / "r.csv"
    cp = run_cli("estimate", data, "--model", "sqrt", "--contrasts", cfile, "--out", out)
    assert cp.returncode == 2
    assert cp.stderr == ""
    row = read_report(out)
    assert row["theta_star"] == ""
    assert row["warnings"] == "contrast denominator is numerically zero"


def test_contrast_denominator_terms_that_overflow_are_not_called_zero(tmp_path, capsys):
    # c w a passes the largest double in the first row: a denominator that is
    # not finite is an error, not one that vanishes against its terms
    data = tmp_path / "data.csv"
    data.write_text("x,a,w\n1,1e200,1e200\n2,1,1\n3,2,1\n")
    out = tmp_path / "r.csv"
    code, err = run_in_process(capsys, "estimate", data, "--model", "sqrt", "--out", out)
    assert (code, err) == (1, "error: non-finite value in contrast denominator terms\n")
    assert not out.exists()


def test_contrast_terms_whose_partial_sums_overflow_still_estimate(tmp_path):
    # the numerator terms are about 1.6e308, 8e307 and -8e307: their partial
    # sums pass the largest double, but the exact sums 1.6000000000000004e308
    # and 8e307 do not, so the preliminary is their ratio
    data = tmp_path / "data.csv"
    data.write_text(
        "x,a\n" + "".join(f"{math.sqrt(v)!r},{a}\n" for v, a in ((3.0, 1), (2.0, 1), (1.5, 0.5)))
    )
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("8e307\n8e307\n-1.6e308\n")
    out = tmp_path / "r.csv"
    cp = run_cli("estimate", data, "--model", "sqrt", "--contrasts", cfile, "--out", out)
    assert (cp.returncode, cp.stderr) == (0, "")
    row = read_report(out)
    assert row["theta_star"] == "2.0000000000000004"
    assert row["warnings"] == ""


def test_partial_report_when_only_the_studentizer_degenerates(tmp_path):
    # an exact fit: the update succeeds, so its estimate and denominator are
    # reported, and the interval the studentizer could not form is left empty
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1.0,2.0,1.0\n2.0,4.0,1.0\n")
    out = tmp_path / "report.csv"
    cp = run_cli("estimate", data, "--model", "mm", "--out", out)
    assert cp.returncode == 2
    row = read_report(out)
    assert float(row["denominator"]) < 0.0
    assert (row["d_star"], row["ci_lo"], row["ci_hi"]) == ("", "", "")


def test_partial_report_when_the_update_fails(tmp_path, capsys):
    # b = a makes the plinear slope a + 2 t b vanish at t = -0.5: the start is
    # reported, and everything the update and studentizer would give is empty
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1,1,1\n2,2,2\n3.5,3,3\n")
    out = tmp_path / "report.csv"
    code, err = run_in_process(
        capsys, "estimate", data, "--model", "plinear", "--theta-start", "-0.5", "--out", out
    )
    assert (code, err) == (2, "")
    assert read_report(out) == {
        "theta_star": "-0.5", "theta_hat": "", "d_star": "", "ci_lo": "", "ci_hi": "",
        "denominator": "", "warnings": "one-step denominator 0.0 is numerically zero",
    }


@pytest.mark.parametrize("model", ["sqrt", "plinear"])
@pytest.mark.parametrize("pipeline", ["one_step_weighted", "lse_one_step", "one_step_factorized"])
def test_estimate_gives_the_campaign_records_bit_for_bit(tmp_path, capsys, model, pipeline):
    # a campaign evaluates its replications as the rows of a block, estimate
    # one Sample read back from repr: both run the one estimation sequence
    cfg = SimConfig(model, 1.0, 0.1, 40, 4, 4, pipeline=pipeline)
    records, _ = montecarlo.run(cfg)
    scn = montecarlo.build_scenario(cfg)
    a, b = montecarlo.default_grid(cfg.n)
    for rec in records:
        assert not rec.degenerate
        x = montecarlo._draw(cfg, scn, range(rec.rep, rec.rep + 1))[0]
        data = tmp_path / f"rep{rec.rep}.csv"
        rows = zip(x.tolist(), a.tolist(), b.tolist())
        data.write_text("x,a,b\n" + "".join(f"{xi!r},{ai!r},{bi!r}\n" for xi, ai, bi in rows))
        out = tmp_path / f"report{rec.rep}.csv"
        code, err = run_in_process(
            capsys, "estimate", data, "--model", model, "--pipeline", pipeline,
            "--alpha", repr(cfg.alpha), "--out", out,
        )
        assert (code, err) == (0, "")
        row = read_report(out)
        assert (row["theta_star"], row["theta_hat"]) == (repr(rec.theta_star), repr(rec.theta_hat))
        assert float(row["d_star"]) * (float(row["theta_hat"]) - cfg.theta_true) == rec.z_stud


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy sets glibc's mallopt")
def test_block_temporaries_stay_resident_between_blocks():
    # glibc's own policy gives each freed block's pages back to the kernel,
    # which costs about 980 minor page faults per mm block at n = 500
    code = textwrap.dedent("""
        import resource
        from onestep import cli, montecarlo
        assert cli._keep_heap_pages() is not None
        cfg = montecarlo.SimConfig(
            model_id="mm", theta_true=1.0, sigma=0.05, n=500, seed=5,
            replications=10 * montecarlo.rows_per_block(500),
        )
        montecarlo.run(cfg)  # the heap grows to the working set once
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        montecarlo.run(cfg)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert int(cp.stdout) <= 10 * 10


def _no_c_library(name):
    raise OSError("cannot open the C library")


@pytest.mark.parametrize(
    "cdll",
    [
        _no_c_library,
        lambda name: types.SimpleNamespace(),
        lambda name: types.SimpleNamespace(mallopt=lambda param, value: 0),
    ],
    ids=["no-library", "no-symbol", "refused"],
)
def test_simulate_without_mallopt(tmp_path, monkeypatch, capsys, cdll):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile)
    pinned, plain = tmp_path / "pinned", tmp_path / "plain"
    assert run_cli("simulate", cfgfile, "--out", pinned).returncode == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_heap_pages() is None
    code, err = run_in_process(capsys, "simulate", cfgfile, "--out", plain)
    assert (code, err) == (0, "")
    for name in ("records.csv", "summary.csv", "qq.csv", "hist.csv"):
        assert (plain / name).read_bytes() == (pinned / name).read_bytes()
    assert json.loads((plain / "manifest.json").read_text())["heap"] is None


def test_importing_the_cli_starts_no_pool_machinery():
    code = (
        "import sys, onestep.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"


def test_contrast_file_values_match_float(tmp_path, capsys):
    texts = ["0.1", "-2.5e-310", "1_000.25", " 3 ", "7", "-0.0"]
    cfile = tmp_path / "contrasts.txt"
    cfile.write_text("".join(f"{t}  # c{i}\n" for i, t in enumerate(texts)))
    values = cli._load_contrast_file(cfile, len(texts))
    expected = np.array([float(t) for t in texts])
    assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n" + "".join(f"{1 + i / 7!r},{2 + i!r},{1 + i / 3!r}\n" for i in range(6)))
    out = tmp_path / "report.csv"
    code, err = run_in_process(capsys, "estimate", data, "--model", "mm", "--contrasts", cfile, "--out", out)
    assert code == 0, err
    s = cli._load_data_csv(data)
    assert read_report(out)["theta_star"] == repr(preliminary_mm(expected, s))


def test_default_contrasts_whose_partial_sums_overflow_end_in_an_error_line(tmp_path):
    # the centering of a sums 1e308, 1e308 and 1.5e308, past the largest double
    data = tmp_path / "data.csv"
    data.write_text("x,a\n1,1e308\n2,1e308\n3,1.5e308\n")
    out = tmp_path / "r.csv"
    cp = run_cli("estimate", data, "--model", "sqrt", "--out", out)
    assert (cp.returncode, cp.stderr) == (
        1, "error: the exact sum of covariate a lies beyond the largest double\n"
    )
    assert not out.exists()


# Each sums finite terms near the largest double whose partial sums pass it:
# the studentizer's variance, the Newton oracle's derivative and its score
@pytest.mark.parametrize(
    "data, flags, name",
    [
        ("x,a\n2.5e154,1\n-2.5e154,1\n1,1\n", ["--theta-start", "0"], "studentizer variance terms"),
        (
            "x,a,b\n3.0,1e+300,1.0\n-1e+154,1e+300,1e+300\n1.0,1e+154,1.3e+154\n",
            ["--pipeline", "newton_oracle", "--theta-start", "0.1"],
            "score derivative terms",
        ),
        (
            "x,a,b\n1.3e+154,2.5e+154,1.3e+154\n1.3e+154,1.3e+154,2.5e+154\n",
            ["--pipeline", "newton_oracle"],
            "score terms",
        ),
    ],
    ids=["studentizer_variance", "newton_derivative", "newton_score"],
)
def test_estimate_sums_whose_partial_sums_overflow_end_in_an_error_line(tmp_path, data, flags, name):
    path = tmp_path / "data.csv"
    path.write_text(data)
    out = tmp_path / "r.csv"
    cp = run_cli("estimate", path, "--model", "sqrt", *flags, "--out", out)
    assert (cp.returncode, cp.stderr) == (
        1, f"error: the exact sum of {name} lies beyond the largest double\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        # the campaign's variance sum I passes the largest double
        ({"model": "sqrt", "sigma": 1e154, "n": 500, "replications": 3, "seed": 1},
         "the exact sum of variance terms lies beyond the largest double"),
        # every studentizer variance term overflows, with a numpy warning unless kept off
        ({"model": "plinear", "sigma": 1e76, "n": 20, "replications": 40, "seed": 1},
         "every replication degenerated; nothing to summarize"),
    ],
    ids=["moment_sums", "plinear_warnings"],
)
def test_simulate_failures_end_in_one_error_line(tmp_path, config, message):
    cfgfile = tmp_path / "sim.cfg"
    write_config(cfgfile, **config)
    out = tmp_path / "out"
    cp = run_cli("simulate", cfgfile, "--out", out)
    assert (cp.returncode, cp.stderr) == (1, f"error: {message}\n")
    assert list(out.iterdir()) == []


# --out below tmp_path: in a missing directory, tmp_path itself, or for
# simulate an existing file and a path below it
@pytest.mark.parametrize(
    "command, out_parts",
    [
        ("estimate", ("no", "r.csv")),
        ("estimate", ()),
        ("simulate", ("taken",)),
        ("simulate", ("taken", "sub")),
        ("report", ("no", "c.csv")),
        ("report", ()),
    ],
    ids=[
        "estimate_missing_dir", "estimate_dir", "simulate_file",
        "simulate_below_file", "report_missing_dir", "report_dir",
    ],
)
def test_unwritable_out_paths_end_in_one_error_line(tmp_path, command, out_parts):
    taken = tmp_path / "taken"
    taken.write_bytes(b"the user's file\n")
    if command == "estimate":
        write_mm_data(tmp_path / "data.csv")
        inputs = [tmp_path / "data.csv", "--model", "mm"]
    elif command == "simulate":
        write_config(tmp_path / "sim.cfg")
        inputs = [tmp_path / "sim.cfg"]
    else:
        (tmp_path / "summary.csv").write_text(
            "# onestep/summary/v1\n" + ",".join(cli._COMPARISON_COLUMNS) + "\n"
            + ",".join(["mm", *["1"] * (len(cli._COMPARISON_COLUMNS) - 1)]) + "\n"
        )
        inputs = [tmp_path / "summary.csv"]
    cp = run_cli(command, *inputs, "--out", tmp_path.joinpath(*out_parts))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1, cp.stderr
    assert cp.stderr.endswith("\n") and "Traceback" not in cp.stderr
    assert taken.read_bytes() == b"the user's file\n"


@pytest.mark.parametrize(
    "rows", ["1,1\n2,2\n3,3.5", "1,1\n1,2\n1,3"], ids=["x_rising", "x_constant"]
)
def test_subnormal_b_has_a_b_orthogonal_default_contrast(tmp_path, capsys, rows):
    # b * b underflows to 0 and c * b keeps a few bits unless b is scaled
    # first, by 2**1063 here, which is no double
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n" + "".join(f"{row},1e-320\n" for row in rows.split("\n")))
    out = tmp_path / "r.csv"
    code, err = run_in_process(capsys, "estimate", data, "--model", "plinear", "--out", out)
    assert (code, err) == (0, "")
    s = cli._load_data_csv(data)
    c = default_contrasts(s, "b_orthogonal")
    assert c.sums_to_zero  # b is constant
    assert read_report(out)["theta_star"] == repr(preliminary_plinear(c, s))


def test_huge_b_has_a_b_orthogonal_default_contrast(tmp_path, capsys):
    # a * b and b * b pass the largest double unless b is scaled first; the
    # update then overflows, which is a named error
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1,1e308,1e308\n2,2,-1e308\n3,3,1\n")
    s = cli._load_data_csv(data)
    terms = default_contrasts(s, "b_orthogonal").c * np.ldexp(s.b, -1024)  # exact c * b / 2**1024
    assert abs(math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms))
    code, err = run_in_process(capsys, "estimate", data, "--model", "plinear", "--out", tmp_path / "r.csv")
    assert (code, err) == (1, "error: non-finite value in score terms\n")


# near the square root of the largest double, squares and products of two
# cells pass it
_EXTREME_CELLS = [0.0, -0.0, 1e-320, -1e-320, 5e-324, 1.0, -1.0, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  1.3e154, -1.3e154, 2.5e154, -2.5e154]


# Shrinking is left out: it would call main thousands of times on a failure,
# which is reported as found instead.
@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(
    n=st.sampled_from([2, 3, 5, 40]),
    model=st.sampled_from(cli.ESTIMATE_MODELS),
    pipeline=st.sampled_from(PIPELINES),
    columns=st.sampled_from(["x,a", "x,a,b", "x,a,w", "x,a,b,w"]),
    theta_start=st.sampled_from([None, 0.0, 0.1]),
    data=st.data(),
)
def test_estimate_ends_in_an_exit_code_on_any_finite_csv(
    n, model, pipeline, columns, theta_start, data
):
    cell = st.one_of(
        st.sampled_from(_EXTREME_CELLS),
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    width = columns.count(",") + 1
    cells = st.lists(cell, min_size=width, max_size=width)
    rows = data.draw(st.lists(cells, min_size=n, max_size=n))
    # a, b and w must be positive: most columns are kept so, to get past that check
    one_in_four = st.integers(0, 3).map(lambda k: k == 0)
    signed = data.draw(st.lists(one_in_four, min_size=width, max_size=width))
    rows = [[v if sign else abs(v) for v, sign in zip(row, signed)] for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "data.csv", Path(tmp) / "report.csv"
        path.write_text(columns + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        start = [] if theta_start is None else ["--theta-start", repr(theta_start)]
        code = cli.main(
            ["estimate", str(path), "--model", model, "--pipeline", pipeline, *start,
             "--out", str(out)]
        )
        assert code in (0, 1, 2)
        if code == 2:
            assert read_report(out)["warnings"] != ""


def _rows_as_write_csv_gives_them(path: Path, name: str, header, rows, digest) -> bytes:
    cli._write_csv(path, name, header, rows, digest)
    return path.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_records_and_qq_lines_are_the_bytes_write_csv_gives(tmp_path, capsys, threads):
    cfgfile = tmp_path / "sim.cfg"
    write_config(
        cfgfile, model="sqrt", n=5, sigma=5.0, noise="scaled-laplace",
        pipeline="newton_oracle", replications=400, seed=3,
    )
    out = tmp_path / "out"
    code, err = run_in_process(capsys, "simulate", cfgfile, "--out", out, "--threads", threads)
    assert (code, err) == (0, "")
    cfg = cli._sim_config_from_file(cfgfile)
    digest = cli._config_digest(cfg)
    records, _ = cli.run(cfg, threads=threads)
    assert sum(r.degenerate for r in records) > 0  # nan cells are written too
    fields = ["rep", "theta_star", "theta_hat", "z", "z_stud", "covered", "degenerate"]
    expected = _rows_as_write_csv_gives_them(
        tmp_path / "records.csv", "records", fields,
        ([getattr(r, f) for f in fields] for r in records), digest,
    )
    assert (out / "records.csv").read_bytes() == expected
    valid_z = sorted(r.z for r in records if not r.degenerate)
    m = len(valid_z)
    expected = _rows_as_write_csv_gives_them(
        tmp_path / "qq.csv", "qq", ["theoretical", "observed"],
        ([cli.normal_quantile((i + 0.5) / m), valid_z[i]] for i in range(m)), digest,
    )
    assert (out / "qq.csv").read_bytes() == expected


def test_main_freezes_what_is_alive_at_start_and_importing_does_not(tmp_path):
    code = textwrap.dedent(f"""
        import gc
        import onestep
        from onestep import cli, montecarlo
        print(gc.get_freeze_count())
        cli.main(["estimate", {str(tmp_path / "data.csv")!r}, "--model", "mm",
                  "--out", {str(tmp_path / "r.csv")!r}])
        print(gc.get_freeze_count())
    """)
    write_mm_data(tmp_path / "data.csv")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()  # main prints its "wrote" line between the counts
    before, after = int(lines[0]), int(lines[-1])
    assert before == 0
    assert after > 0
