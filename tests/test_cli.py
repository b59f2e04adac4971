"""Command line tests.

Each test drives ``cli.main`` in process and inspects the files it writes,
except the BLAS thread-count and stderr tests, which need fresh processes.
Numeric output is cross-read against the library calls the command wraps,
so the CLI cannot drift from the package API.
"""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dtlab import brown, cli, dyson, ensembles, linalg, measures


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    return lines[1], lines[2:]


# ----------------------------------------------------------------------------
# sample


def test_sample_writes_matrix_spectrum_moments(tmp_path):
    out = tmp_path / "s"
    code = run(
        "sample", "--mu", "atom:0,0,1", "--c", 1, "--k", 32, "--seed", 7,
        "--out", out,
    )
    assert code == 0
    header, rows = read_csv_rows(out / "eigenvalues.csv")
    assert header == "re,im"
    assert len(rows) == 32
    # A centered point mass gives a strictly upper triangular sample, so
    # every eigenvalue is exactly zero.
    for row in rows:
        re, im = (float(v) for v in row.split(","))
        assert re == 0.0 and im == 0.0
    assert (out / "matrix.csv").exists()
    assert (out / "moments.json").exists()


def test_sample_matrix_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "s"
    assert run("sample", "--c", 1, "--k", 12, "--seed", 3, "--out", out) == 0
    _, rows = read_csv_rows(out / "matrix.csv")
    a = np.zeros((12, 12), dtype=complex)
    for row in rows:
        i, j, re, im = row.split(",")
        a[int(i), int(j)] = complex(float(re), float(im))
    direct = ensembles.sample_dt(
        ensembles.DTParams(
            mu=measures.CompactMeasure.dirac(0.0), c=1.0, k=12, seed=3
        )
    )
    assert np.array_equal(a, direct)


def test_sample_moments_match_the_library(tmp_path):
    out = tmp_path / "s"
    assert run("sample", "--c", 1, "--k", 16, "--seed", 5, "--out", out) == 0
    payload = read_json(out / "moments.json")
    a = ensembles.sample_dt(
        ensembles.DTParams(
            mu=measures.CompactMeasure.dirac(0.0), c=1.0, k=16, seed=5
        )
    )
    table = ensembles.star_moment_table(a, 4)
    for word, value in table.items():
        re, im = payload["moments"][word]
        assert complex(re, im) == pytest.approx(value, abs=1e-12)


def assert_reruns_byte_identical(out, *args):
    assert run(*args, "--out", out) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first
    assert run(*args, "--out", out) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_sample_reruns_byte_identical(tmp_path):
    assert_reruns_byte_identical(
        tmp_path / "s", "sample", "--c", 1, "--k", 16, "--seed", 9
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["brown", "--k", 48, "--delta-reg", 0.1, "--seed", 3],
        ["eeps", "--gen-k", 6, "--eps", 0.01, "--delta", 0.2,
         "--trials", 200, "--seed", 9],
        ["selberg", "--n-grid", "2,3,8", "--seed", 9],
        ["scan", "--bigN", 2, "--k", 8, "--eps-grid", "1e-2,1e-3", "--seed", 9],
        ["freeness", "--k", 16, "--order", 3, "--gamma", 0.5, "--seed", 9],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_reruns_byte_identical(tmp_path, argv):
    assert_reruns_byte_identical(tmp_path / "o", *argv)


def per_entry_matrix_csv(config: dict, a: np.ndarray) -> str:
    """Reference writer: one formatted line per entry, read back as complex."""
    lines = ["# " + json.dumps(config, sort_keys=True) + "\n", "i,j,re,im\n"]
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            z = complex(a[i, j])
            lines.append(f"{i},{j},{z.real!r},{z.imag!r}\n")
    return "".join(lines)


def test_matrix_writer_matches_the_per_entry_writer(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a[0, 0] = complex(-0.0, -0.0)
    a[1, 2] = complex(1e-5, -0.0)
    a[3, 4] = complex(1e16, 1e-5)
    a[8, 8] = complex(-1e16, 0.0)
    config = {"k": 9, "seed": 2}
    cli._write_csv(tmp_path / "m.csv", config, "i,j,re,im", cli._matrix_lines(a))
    assert (tmp_path / "m.csv").read_text() == per_entry_matrix_csv(config, a)


def test_matrix_writer_converts_one_row_at_a_time(tmp_path):
    # Writing matrix.csv at k = 512 peaked at 4.0 matrices of traced
    # allocation when the whole matrix became Python lists first, and at 0.02
    # with one row converted at a time.
    k = 512
    rng = np.random.default_rng(3)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "m.csv", {"k": k}, "i,j,re,im", cli._matrix_lines(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= a.nbytes / 8


def test_sample_block_model_size(tmp_path):
    out = tmp_path / "s"
    assert run(
        "sample", "--c", 1, "--k", 8, "--block", 2, "--seed", 1, "--out", out
    ) == 0
    _, rows = read_csv_rows(out / "eigenvalues.csv")
    assert len(rows) == 16


# ----------------------------------------------------------------------------
# brown


def test_brown_verdict_and_artifacts(tmp_path):
    out = tmp_path / "b"
    code = run(
        "brown", "--mu", "atom:0,0,1", "--c", 1, "--eps", 0.5, "--k", 48,
        "--delta-reg", 0.1, "--seed", 3, "--out", out,
    )
    assert code == 0
    verdict = read_json(out / "verdict.json")
    entry = verdict["disk_law"]["atom_0"]
    assert entry["passed"] is True
    assert entry["radius"] == pytest.approx(
        measures.perturbation_radius(1.0, 1.0, 0.5)
    )
    assert 0.0 <= entry["distance"] <= entry["threshold"]
    assert verdict["norm_budget"] == pytest.approx(0.5)
    assert verdict["density_mass"] == pytest.approx(1.0, abs=0.05)
    _, rows = read_csv_rows(out / "eigenvalues.csv")
    assert len(rows) == 48
    assert (out / "radial_cdf.csv").exists()
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][2:])
    assert set(header) == {"config", "delta_reg", "grid", "mass"}
    assert header["mass"] == verdict["density_mass"]
    assert lines[1] == "x,y,density"
    assert len(lines) == 2 + header["grid"]["n"] ** 2


def test_brown_no_density_flag(tmp_path):
    out = tmp_path / "b"
    code = run(
        "brown", "--c", 1, "--eps", 0.5, "--k", 32, "--delta-reg", 0.1,
        "--seed", 3, "--out", out, "--no-density",
    )
    assert code == 0
    assert not (out / "density.csv").exists()
    assert read_json(out / "verdict.json")["density_mass"] is None


def test_brown_at_an_eps_whose_square_underflows(tmp_path):
    # eps^2 is 0.0 in floating point, so the disk radius is taken in logs.
    # The run completes with a finite radius, and its exit code is the
    # disk-law verdict it records (at k = 16 the computed spectrum sits on
    # the atom, and the check fails), or it is refused with nothing written.
    out = tmp_path / "b"
    code = run(
        "brown", "--seed", 1, "--k", 16, "--eps", 1e-200, "--no-density",
        "--out", out,
    )
    if code == 2:
        assert not out.exists()
        return
    verdict = read_json(out / "verdict.json")
    disk = verdict["disk_law"]["atom_0"]
    assert 0.0 < disk["radius"] < math.inf
    assert disk["radius"] == measures.perturbation_radius(1.0, 1.0, 1e-200)
    assert code == (0 if disk["passed"] else 1)
    assert sorted(p.name for p in out.iterdir()) == [
        "eigenvalues.csv", "radial_cdf.csv", "verdict.json",
    ]


def test_brown_perturbation_norm_at_a_subnormal_eps_is_valid_json(tmp_path):
    # z - y has subnormal entries near 1e-320; norm2 used to divide them by
    # their subnormal largest modulus, which overflowed, and wrote NaN.
    out = tmp_path / "b"
    run("brown", "--seed", 1, "--k", 8, "--eps", 1e-320, "--no-density", "--out", out)

    def refuse(name):
        raise ValueError(f"verdict.json holds {name}")

    verdict = json.loads((out / "verdict.json").read_text(), parse_constant=refuse)
    assert 0.0 < verdict["perturbation_norm"] <= 1e-320


def test_brown_refuses_a_density_grid_above_the_cost_ceiling(
    tmp_path, monkeypatch, capsys
):
    # At k = 256, delta_reg 1e-3 asks for 2089^2 cells, hours of LU work.
    # The refusal comes from the covering grid, before any eigenvalue or
    # factorization and before the first file.
    def never(*args, **kwargs):
        raise AssertionError("a refused run reached the solvers")

    monkeypatch.setattr(linalg, "eigenvalues", never)
    monkeypatch.setattr(brown, "brown_logdet_grid", never)
    out = tmp_path / "b"
    start = time.perf_counter()
    assert run("brown", "--seed", 1, "--k", 256, "--delta-reg", 1e-3, "--out", out) == 2
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ceiling" in err and err.count("\n") == 1
    assert not out.exists()


# ----------------------------------------------------------------------------
# eeps


def test_eeps_ordering_and_fields(tmp_path):
    out = tmp_path / "e"
    # A purely diffuse measure generates points with no perturbation, which
    # the sampler flags; the estimators still run on the raw diagonal.
    with pytest.warns(UserWarning):
        code = run(
            "eeps", "--gen-k", 4, "--mu", "disk:0,0,1,1", "--eps", 0.01,
            "--delta", 0.2, "--trials", 2000, "--seed", 2, "--out", out,
        )
    assert code == 0
    payload = read_json(out / "eeps.json")
    assert payload["ordering_ok"] is True
    assert payload["unbiased"]["n"] == 4
    assert payload["trials"] == 2000
    lb = payload["lower_bound"]["log_value"]
    jn = payload["jensen"]["log_value"]
    ub = payload["unbiased"]["log_value"]
    assert lb <= jn <= ub + 3 * payload["unbiased"]["std_error"]


def test_eeps_reads_a_points_csv(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n-0.4,0.0\n0.0,0.5\n")
    out = tmp_path / "e"
    code = run(
        "eeps", "--points", pts, "--eps", 0.01, "--delta", 0.2,
        "--trials", 1000, "--seed", 1, "--out", out,
    )
    assert code == 0
    assert read_json(out / "eeps.json")["unbiased"]["n"] == 3


def test_eeps_refuses_a_non_finite_point(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\nnan,0\n0.0,0.5\n")
    out = tmp_path / "e"
    code = run(
        "eeps", "--points", pts, "--eps", 0.01, "--delta", 0.2,
        "--trials", 200, "--seed", 1, "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pts.csv" in err
    assert not (out / "eeps.json").exists()


def test_eeps_skips_the_lower_bound_when_inadmissible(tmp_path):
    out = tmp_path / "e"
    code = run(
        "eeps", "--gen-k", 3, "--eps", 0.2, "--delta", 0.3,
        "--trials", 500, "--seed", 2, "--out", out,
    )
    assert code == 0
    payload = read_json(out / "eeps.json")
    assert payload["lower_bound"] is None
    assert "3*eps" in payload["lower_bound_skipped"]


def test_eeps_on_one_point_records_why_the_bound_is_skipped(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n")
    out = tmp_path / "e"
    code = run(
        "eeps", "--points", pts, "--eps", 0.01, "--delta", 0.2,
        "--trials", 200, "--seed", 1, "--out", out,
    )
    assert code == 0
    payload = read_json(out / "eeps.json")
    assert payload["unbiased"]["n"] == 1
    assert payload["lower_bound"] is None
    with pytest.raises(ValueError) as exc:
        dyson.separation_integral_lower_bound([0.1 + 0.2j], 0.01, 0.2)
    assert payload["lower_bound_skipped"] == str(exc.value)


# ----------------------------------------------------------------------------
# selberg


def test_selberg_table_and_verdict(tmp_path):
    out = tmp_path / "g"
    code = run(
        "selberg", "--n-grid", "2,3,64", "--eps", 1.0, "--seed", 1,
        "--out", out,
    )
    assert code == 0
    header, rows = read_csv_rows(out / "selberg.csv")
    assert header == "n,log_box_integral,rate,rate_minus_limit"
    assert len(rows) == 3
    n, box, rate, gap = rows[0].split(",")
    assert int(n) == 2
    assert float(box) == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)
    assert float(gap) == pytest.approx(
        float(rate) + 2.0 * math.log(2.0), abs=1e-12
    )
    payload = read_json(out / "selberg.json")
    assert payload["converging"] is True
    assert payload["limit"] == pytest.approx(-2.0 * math.log(2.0))
    assert payload["final_rate"] == pytest.approx(
        dyson.gamma_product_rate(64), abs=1e-12
    )


def test_selberg_writes_each_distinct_size_once(tmp_path):
    assert run(
        "selberg", "--n-grid", "8,2,2", "--seed", 1, "--out", tmp_path / "dup"
    ) == 0
    assert run(
        "selberg", "--n-grid", "2,8", "--seed", 1, "--out", tmp_path / "once"
    ) == 0
    _, dup = read_csv_rows(tmp_path / "dup" / "selberg.csv")
    _, once = read_csv_rows(tmp_path / "once" / "selberg.csv")
    assert [int(row.split(",")[0]) for row in dup] == [2, 8]
    assert dup == once


# ----------------------------------------------------------------------------
# scan


def test_scan_summary_and_csv(tmp_path):
    out = tmp_path / "c"
    code = run(
        "scan", "--bigN", 2, "--k", 8, "--eps-grid", "1e-2,1e-3",
        "--seed", 0, "--out", out,
    )
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["non_decreasing_within_slack"] is True
    assert summary["final_delta_hat"] > summary["first_delta_hat"]
    assert len(summary["rows"]) == 2
    header, rows = read_csv_rows(out / "scan.csv")
    assert header == "eps,delta,bigN,k,f_lb_norm,const_term,delta_hat"
    assert len(rows) == 2
    assert float(rows[0].split(",")[6]) == pytest.approx(
        summary["first_delta_hat"], rel=1e-9
    )


def test_scan_rejects_an_empty_grid(tmp_path, capsys):
    code = run(
        "scan", "--bigN", 2, "--k", 8, "--eps-grid", "0.9",
        "--seed", 0, "--out", tmp_path / "c",
    )
    assert code == 2
    assert "no admissible eps" in capsys.readouterr().err


def test_scan_refuses_before_writing_anything(tmp_path):
    out = tmp_path / "c"
    code = run(
        "scan", "--seed", 1, "--k", 8, "--bigN", 2, "--eps-grid", 0.5, "--out", out,
    )
    assert code == 2
    assert not (out / "scan.csv").exists()


# ----------------------------------------------------------------------------
# freeness


def test_freeness_independent_ginibres_pass(tmp_path):
    out = tmp_path / "f"
    code = run(
        "freeness", "--members", "ginibre,ginibre", "--k", 64, "--order", 3,
        "--gamma", 0.2, "--seed", 5, "--out", out,
    )
    assert code == 0
    payload = read_json(out / "freeness.json")
    assert payload["passed"] is True
    assert payload["max_abs_trace"] < 0.2
    assert payload["products_checked"] > 0
    # One traced representative per class of products with equal |trace|.
    assert 0 < payload["traces_evaluated"] < payload["products_checked"]


def test_freeness_repeated_member_fails(tmp_path):
    out = tmp_path / "f"
    code = run(
        "freeness", "--members", "ginibre,repeat", "--k", 64, "--order", 2,
        "--gamma", 0.2, "--seed", 5, "--out", out,
    )
    assert code == 1
    assert read_json(out / "freeness.json")["passed"] is False


def run_under_blas_threads(tmp_path, runs) -> list[Path]:
    """Run each argv in a fresh process, once under 1 and once under 2
    OpenBLAS threads, each run writing to --out <its subcommand>; returns
    the two working directories."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cwds = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        for argv in runs:
            subprocess.run(
                [sys.executable, "-m", "dtlab", *argv, "--out", argv[0]],
                cwd=cwd, env=env, check=True, timeout=600,
            )
        cwds.append(cwd)
    return cwds


def test_moment_and_freeness_bytes_do_not_depend_on_blas_threads(tmp_path):
    # At k = 200 the trace engine streams three full row blocks and a ragged
    # one.  A BLAS dot product of such operands rounds differently under 1
    # and 2 OpenBLAS threads; the engine's reductions must not.
    runs = (
        ("sample", "--seed", "1", "--k", "200"),
        ("freeness", "--seed", "5", "--k", "200", "--order", "4"),
    )
    outputs = [
        [
            (cwd / "sample" / "moments.json").read_bytes(),
            (cwd / "freeness" / "freeness.json").read_bytes(),
        ]
        for cwd in run_under_blas_threads(tmp_path, runs)
    ]
    assert outputs[0] == outputs[1]


def test_brown_perturbation_norm_does_not_depend_on_blas_threads(tmp_path):
    # A BLAS Frobenius norm of the k = 256 perturbation rounds differently
    # under 1 and 2 OpenBLAS threads; norm2 must not.
    runs = [("brown", "--seed", "2", "--eps", "0.5", "--k", "256", "--no-density")]
    norms = [
        read_json(cwd / "brown" / "verdict.json")["perturbation_norm"]
        for cwd in run_under_blas_threads(tmp_path, runs)
    ]
    assert repr(norms[0]) == repr(norms[1])


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--k", "8", "--c", "1e150"),
        ("freeness", "--k", "8", "--c", "1e300", "--members", "dt,ginibre"),
    ],
    ids=["sample", "freeness"],
)
def test_overflow_refusal_prints_one_line_from_the_shell(tmp_path, argv):
    # pytest captures warnings, so only a fresh process shows whether numpy's
    # overflow warnings reach stderr ahead of the refusal.
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "dtlab", *argv, "--seed", "1", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not out.exists()


# ----------------------------------------------------------------------------
# Config file and error handling


def test_config_file_supplies_defaults_and_cli_wins(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k=16\nc=2.0\n")
    out1 = tmp_path / "a"
    assert run("sample", "--config", cfg, "--seed", 1, "--out", out1) == 0
    conf = read_json(out1 / "moments.json")["config"]
    assert conf["k"] == 16 and conf["c"] == 2.0
    out2 = tmp_path / "b"
    assert run(
        "sample", "--config", cfg, "--k", 8, "--seed", 1, "--out", out2
    ) == 0
    assert read_json(out2 / "moments.json")["config"]["k"] == 8


def test_config_file_mu_loses_to_the_command_line(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k=8\nmu=atom:0,0,1\n")
    out = tmp_path / "a"
    assert run(
        "sample", "--config", cfg, "--mu", "atom:1,0,1", "--seed", 1, "--out", out
    ) == 0
    assert read_json(out / "moments.json")["config"]["mu"] == ["atom:1,0,1"]
    # Without --mu on the command line, every mu= line of the file appends.
    cfg.write_text("k=8\nmu=atom:0,0,0.5\nmu=atom:1,0,0.5\n")
    out = tmp_path / "b"
    assert run("sample", "--config", cfg, "--seed", 1, "--out", out) == 0
    mu = read_json(out / "moments.json")["config"]["mu"]
    assert mu == ["atom:0,0,0.5", "atom:1,0,0.5"]


def test_config_file_equals_form(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k=16\n")
    out = tmp_path / "a"
    assert run("sample", f"--config={cfg}", "--seed", 1, "--out", out) == 0
    assert read_json(out / "moments.json")["config"]["k"] == 16


def test_abbreviated_config_flag_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k=16\n")
    out = tmp_path / "a"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--conf", cfg, "--seed", 1, "--out", out)
    assert exc.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "--conf" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--k", 0],
        ["brown", "--eps", -1],
        ["freeness", "--order", 0],
        ["eeps", "--gen-k", 8, "--trials", 10],
        ["selberg", "--n-grid", 0],
        ["brown", "--k", 8, "--delta-reg", 0],
        ["selberg", "--n-grid", ","],
        ["selberg", "--n-grid", 8],
        ["scan", "--k", 8, "--bigN", 2, "--eps-grid", 0.5],
        ["eeps", "--points", "pts.csv", "--gen-k", 4],
        ["sample", "--k", 8, "--moment-order", 0],
        ["eeps", "--points", "dup.csv", "--eps", 1e-200, "--trials", 200],
        ["freeness", "--k", 0],
        ["brown", "--k", 8, "--threshold", -1],
        ["brown", "--k", 8, "--threshold", "nan"],
        ["brown", "--k", 8, "--delta-reg", 1e-300],
        ["eeps", "--gen-k", 8, "--eps", 0.01, "--trials", 100, "--delta", "nan"],
        ["selberg", "--n-grid", "2,4", "--eps", "inf"],
        ["freeness", "--k", 8, "--gamma", "inf"],
        ["scan", "--k", 8, "--bigN", 2, "--eps-grid", 1e-3, "--chi-offset", "nan"],
        ["sample", "--k", 8, "--c", 1e150],
        ["freeness", "--k", 8, "--c", 1e300, "--members", "dt,ginibre"],
        ["sample", "--k", 8, "--block", 2, "--mode", "iid"],
    ],
    ids=[
        "sample-k", "brown-eps", "freeness-order", "eeps-trials", "selberg-grid",
        "brown-delta-reg", "selberg-empty-grid", "selberg-one-size",
        "scan-no-admissible-eps", "eeps-points-and-gen-k", "sample-moment-order",
        "eeps-inseparable-points", "freeness-k", "brown-negative-threshold",
        "brown-nan-threshold", "brown-grid-cost", "eeps-nan-delta",
        "selberg-inf-eps", "freeness-inf-gamma", "scan-nan-chi-offset",
        "sample-moment-overflow", "freeness-trace-overflow", "sample-block-iid",
    ],
)
def test_library_precondition_errors_exit_two(tmp_path, monkeypatch, capsys, argv):
    # Two equal points: at eps 1e-200 every squared separation underflows, so
    # the Monte Carlo cannot draw a nondegenerate sample.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.csv").write_text("0.5,0\n0.5,0\n0,-0.5\n")
    # A refused run writes nothing, not even the --out directory.
    out = tmp_path / "o"
    assert run(*argv, "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_eigensolver_non_convergence_exits_one(tmp_path, monkeypatch, capsys):
    # The README's exit code 1 covers a run whose eigensolver did not
    # converge; a budget of no shifts makes the first sweep exceed it.
    monkeypatch.setattr(linalg, "_SHIFTS_PER_DIM", 0)
    out = tmp_path / "o"
    code = run("brown", "--seed", 2, "--k", 64, "--no-density", "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--chi-offset", "nan"], "--chi-offset"),
        (["--eps-grid", "1e-3,inf"], "--eps-grid"),
    ],
    ids=["scan-chi-offset", "scan-eps-grid"],
)
def test_non_finite_float_flag_is_named_in_the_refusal(tmp_path, capsys, argv, flag):
    # The refusal names the flag at fault: without the check, a nan offset
    # reads as a grid with no admissible eps, and an inf entry is skipped.
    argv = ["scan", "--k", 8, "--bigN", 2, "--eps-grid", 1e-3, *argv]
    assert run(*argv, "--seed", 1, "--out", tmp_path / "o") == 2
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_measure_spec_exits_two(tmp_path, capsys):
    code = run(
        "sample", "--mu", "blob:1", "--c", 1, "--k", 8, "--seed", 1,
        "--out", tmp_path / "s",
    )
    assert code == 2
    assert "blob" in capsys.readouterr().err


def test_bad_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("this is not key value\n")
    code = run(
        "sample", "--config", cfg, "--seed", 1, "--out", tmp_path / "s"
    )
    assert code == 2
    assert "key=value" in capsys.readouterr().err


def test_missing_seed_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit):
        run("sample", "--k", 8, "--out", tmp_path / "s")
