"""Batch command line: run each experiment, emit deterministic CSV/JSON.

Subcommands: sample | brown | eeps | selberg | scan | freeness.  Every run
requires --seed; no wall-clock state enters any output, so rerunning a
command reproduces its files byte for byte.  Each output embeds the resolved
configuration (CSV files in a leading '# <json>' line, JSON files under a
"config" key).

Exit codes: 0 when all requested checks pass, 1 when a numerical check
fails, 2 for configuration errors (bad flags, bad measure specs, violated
preconditions).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import brown, dimension, dyson, ensembles, linalg, measures
from .rng import derive_seed

_LIMIT_NEG2LOG2 = -2.0 * math.log(2.0)


def _write_csv(path: Path, config: dict, header: str, lines) -> None:
    """The one CSV layout: a '# <json>' line, the column line, then ``lines``,
    each rendered with its newline.  Creates the directory on the first file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n" + header + "\n")
        fh.writelines(lines)


def _write_json(path: Path, config: dict, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"config": config, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_mu(args: argparse.Namespace) -> measures.CompactMeasure:
    specs = args.mu if args.mu else ["atom:0,0,1"]
    return measures.parse_measure_spec(specs)


def _eigenvalue_lines(lam: np.ndarray):
    return (f"{re!r},{im!r}\n" for re, im in zip(lam.real.tolist(), lam.imag.tolist()))


def _matrix_lines(a: np.ndarray):
    """One string per row of a: its 'i,j,re,im' lines, converted and joined per row."""
    for i, row in enumerate(a):
        yield "".join([
            f"{i},{j},{re!r},{im!r}\n"
            for j, (re, im) in enumerate(zip(row.real.tolist(), row.imag.tolist()))
        ])


# ----------------------------------------------------------------------------
# Subcommands


def cmd_sample(args: argparse.Namespace, out: Path, config: dict) -> int:
    mu = _parse_mu(args)
    if args.block:
        if args.mode != "quantile":
            raise ValueError("--block samples quantile diagonals only, not --mode iid")
        a = ensembles.assemble_block_dt(mu, args.c, args.block, args.k, args.seed)
    else:
        a = ensembles.sample_dt(
            ensembles.DTParams(mu=mu, c=args.c, k=args.k, seed=args.seed),
            mode=args.mode,
        )
    lam = linalg.eigenvalues(a)
    table = ensembles.star_moment_table(a, args.moment_order)
    _write_csv(out / "matrix.csv", config, "i,j,re,im", _matrix_lines(a))
    _write_csv(out / "eigenvalues.csv", config, "re,im", _eigenvalue_lines(lam))
    moments = {w: _complex_pair(v) for w, v in table.items()}
    _write_json(out / "moments.json", config, {"moments": moments})
    return 0


def cmd_brown(args: argparse.Namespace, out: Path, config: dict) -> int:
    if not (args.threshold > 0):
        raise ValueError(f"--threshold must be positive, got {args.threshold}")
    mu = _parse_mu(args)
    pair = brown.perturbed_microstate(mu, args.c, args.eps, args.k, args.seed)
    grid = brown.GridSpec.covering(pair.z, args.delta_reg) if args.density else None
    # Before the first file, so a refused disk leaves nothing behind.
    # smear_atoms puts each atom's disk first among the diffuse parts.
    disks = measures.smear_atoms(mu, args.c, args.eps).diffuse[: len(mu.atoms)]
    lam = linalg.eigenvalues(pair.z)
    _write_csv(out / "eigenvalues.csv", config, "re,im", _eigenvalue_lines(lam))
    verdicts = {}
    lines = []
    for i, (disk, run) in enumerate(zip(disks, pair.runs)):
        subset = lam[run]
        dist = (
            brown.radial_cdf_distance(subset, disk.center, disk.radius)
            if subset.size
            else 1.0
        )
        verdicts[f"atom_{i}"] = {
            "center": _complex_pair(disk.center),
            "radius": disk.radius,
            "distance": dist,
            "threshold": args.threshold,
            "passed": bool(dist <= args.threshold),
        }
        if subset.size:
            ts, fs = brown.radial_cdf_curve(subset, disk.center, disk.radius)
            lines.extend(
                f"{i},{t!r},{f!r}\n" for t, f in zip(ts.tolist(), fs.tolist())
            )
    _write_csv(out / "radial_cdf.csv", config, "atom,t,cdf", lines)

    density_mass = None
    if grid is not None:
        field = brown.brown_logdet_grid(pair.z, grid, args.delta_reg)
        density_mass = field.mass
        header = {
            "config": config,
            "delta_reg": field.delta_reg,
            "grid": asdict(grid),
            "mass": density_mass,
        }
        _write_csv(out / "density.csv", header, "x,y,density", (
            f"{xv:.10g},{yv:.10g},{v:.10g}\n"
            for yv, row in zip(grid.ys, field.values)
            for xv, v in zip(grid.xs, row)
        ))

    payload = {
        "disk_law": verdicts,
        "perturbation_norm": pair.perturbation_norm,
        "norm_budget": args.eps * args.c,
        "empty_perturbation": not mu.atoms,
        "density_mass": density_mass,
    }
    _write_json(out / "verdict.json", config, payload)
    return 0 if all(v["passed"] for v in verdicts.values()) else 1


def cmd_eeps(args: argparse.Namespace, out: Path, config: dict) -> int:
    if args.points and args.gen_k:
        raise ValueError("give either --points or --gen-k, not both")
    if args.points:
        pts = measures._load_point_csv(Path(args.points))
    elif args.gen_k:
        mu = _parse_mu(args)
        pair = brown.perturbed_microstate(mu, args.c, args.eps, args.gen_k, args.seed)
        pts = linalg.eigenvalues(pair.z)
    else:
        raise ValueError("one of --points or --gen-k is required")
    n = pts.size
    est = dyson.log_separation_integral_mc(pts, args.eps, args.trials, args.seed)

    delta, lower, lower_skip = args.delta, None, None
    try:
        if delta is None:
            delta = dyson.delta_schedule(args.eps)
        lower = dyson.separation_integral_lower_bound(pts, args.eps, delta)
    except ValueError as exc:
        lower_skip = str(exc)

    def record(e: dyson.LogEstimate) -> dict:
        rec = asdict(e)
        rec.update({"n": n, "eps": args.eps, "delta": delta})
        return rec

    ordering_ok = est.jensen.log_value <= est.unbiased.log_value + 3.0 * (
        est.unbiased.std_error + est.jensen.std_error
    )
    if lower is not None:
        ordering_ok = ordering_ok and lower.log_value <= est.jensen.log_value + 3.0 * (
            est.jensen.std_error + 1e-9
        )
    payload = {
        "unbiased": record(est.unbiased),
        "jensen": record(est.jensen),
        "lower_bound": record(lower) if lower is not None else None,
        "lower_bound_skipped": lower_skip,
        "trials": est.trials,
        "resampled": est.resampled,
        "ordering_ok": bool(ordering_ok),
    }
    _write_json(out / "eeps.json", config, payload)
    return 0 if ordering_ok else 1


def cmd_selberg(args: argparse.Namespace, out: Path, config: dict) -> int:
    grid = sorted(set(args.n_grid))
    if len(grid) < 2:
        raise ValueError("--n-grid needs at least two distinct sizes")
    rates, lines = {}, []
    for n in grid:
        box = dyson.log_selberg_box_integral(n, args.eps).log_value
        rates[n] = rate = dyson.gamma_product_rate(n)
        lines.append(f"{n},{box!r},{rate!r},{rate - _LIMIT_NEG2LOG2!r}\n")
    converged = abs(rates[grid[-1]] - _LIMIT_NEG2LOG2) < abs(
        rates[grid[0]] - _LIMIT_NEG2LOG2
    )
    _write_csv(
        out / "selberg.csv", config, "n,log_box_integral,rate,rate_minus_limit", lines
    )
    _write_json(
        out / "selberg.json",
        config,
        {
            "limit": _LIMIT_NEG2LOG2,
            "final_rate": rates[grid[-1]],
            "converging": bool(converged),
        },
    )
    return 0 if converged else 1


def cmd_scan(args: argparse.Namespace, out: Path, config: dict) -> int:
    mu = _parse_mu(args)
    rows = dimension.dimension_scan(
        mu,
        args.c,
        args.bigN,
        args.k,
        args.eps_grid,
        chi_offset=args.chi_offset,
        seed=args.seed,
    )
    if not rows:
        raise ValueError("no admissible eps in the grid; nothing to scan")
    out.mkdir(parents=True, exist_ok=True)
    dimension.write_scan_csv(rows, out / "scan.csv", config)
    hats = [r.delta_hat for r in rows]
    slack = 0.05
    non_decreasing = all(b >= a - slack for a, b in zip(hats, hats[1:]))
    trend_ok = non_decreasing and hats[-1] > hats[0]
    _write_json(
        out / "summary.json",
        config,
        {
            "rows": [asdict(r) for r in rows],
            "first_delta_hat": hats[0],
            "final_delta_hat": hats[-1],
            "non_decreasing_within_slack": bool(non_decreasing),
            "slack": slack,
            "trend_ok": bool(trend_ok),
        },
    )
    return 0 if trend_ok else 1


def _build_family(args: argparse.Namespace) -> list[np.ndarray]:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    mu = _parse_mu(args)
    family: list[np.ndarray] = []
    for i, kind in enumerate(args.members):
        seed_i = derive_seed(args.seed, 2, i)
        if kind == "ginibre":
            family.append(ensembles.sample_ginibre(args.k, 1.0 / args.k, seed_i))
        elif kind == "dt":
            family.append(
                ensembles.sample_dt(
                    ensembles.DTParams(mu=mu, c=args.c, k=args.k, seed=seed_i)
                )
            )
        elif kind == "strict-upper":
            family.append(ensembles.sample_strict_upper(args.k, args.c, seed_i))
        elif kind == "diagonal":
            family.append(ensembles.sample_diagonal(mu, args.k, seed=seed_i))
        elif kind == "repeat":
            if not family:
                raise ValueError("'repeat' cannot be the first family member")
            family.append(family[-1])
        else:
            raise ValueError(f"unknown family member kind {kind!r}")
    return family


def cmd_freeness(args: argparse.Namespace, out: Path, config: dict) -> int:
    family = _build_family(args)
    report = ensembles.freeness_check(family, args.order, args.gamma)
    _write_json(out / "freeness.json", config, asdict(report))
    return 0 if report.passed else 1


# ----------------------------------------------------------------------------
# Parsing


def _csv_of(kind):
    def parse(text: str):
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def build_parser() -> argparse.ArgumentParser:
    # No parser accepts abbreviated flags: "--conf FILE" would set
    # args.config without _inject_config_file expanding the file.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument(
        "--config",
        default=None,
        help="key=value file; entries become flags, command line wins",
    )

    model = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    model.add_argument(
        "--mu",
        action="append",
        help="measure component, repeatable: 'atom:re,im,mass', "
        "'disk:re,im,radius,mass', 'empirical:csv,mass' "
        "(space-separated fields also accepted); default atom:0,0,1",
    )
    model.add_argument("--c", type=float, default=1.0)

    parser = argparse.ArgumentParser(
        prog="dtlab",
        allow_abbrev=False,
        description="Random-matrix experiments: triangular models, spectral "
        "clouds, separation integrals, packing scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(
            name, parents=[common, *parents], allow_abbrev=False, help=summary
        )

    p = add("sample", "sample a model, write matrix/spectrum/moments", model)
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--block", type=int, default=0, help="block count (block model)")
    p.add_argument("--mode", choices=("quantile", "iid"), default="quantile")
    p.add_argument("--moment-order", type=int, default=4)
    p.set_defaults(func=cmd_sample)

    p = add("brown", "perturbed microstate and its spectral cloud", model)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--delta-reg", type=float, default=0.2)
    p.add_argument("--threshold", type=float, default=0.1, help="disk-law verdict cap")
    p.add_argument(
        "--density",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="emit the log-determinant density grid",
    )
    p.set_defaults(func=cmd_brown)

    p = add("eeps", "separation-integral estimators on a point set", model)
    p.add_argument("--points", default=None, help="CSV of re,im rows")
    p.add_argument("--gen-k", type=int, default=0, help="generate points at this size")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=None, help="close-pair threshold")
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(func=cmd_eeps)

    p = add("selberg", "box-integral identity and rate tables")
    p.add_argument(
        "--n-grid", type=_csv_of(int), default=[2, 4, 8, 16, 32, 64, 128, 256]
    )
    p.add_argument("--eps", type=float, default=1.0)
    p.set_defaults(func=cmd_selberg)

    p = add("scan", "dimension lower-bound scan over eps", model)
    p.add_argument("--bigN", type=int, default=8)
    p.add_argument("--k", type=int, default=128)
    p.add_argument(
        "--eps-grid",
        type=_csv_of(float),
        default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
    )
    p.add_argument("--chi-offset", type=float, default=0.0)
    p.set_defaults(func=cmd_scan)

    p = add("freeness", "alternating-moment freeness report", model)
    p.add_argument("--k", type=int, default=512)
    p.add_argument(
        "--members",
        type=_csv_of(str),
        default=["ginibre", "ginibre"],
        help="comma list: ginibre|dt|strict-upper|diagonal|repeat",
    )
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.05)
    p.set_defaults(func=cmd_freeness)
    return parser


def _inject_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE or --config=FILE into flags placed before the
    explicit ones, skipping every entry whose flag the command line gives."""
    for at, token in enumerate(argv):
        if token == "--config":
            if at + 1 >= len(argv):
                raise ValueError("--config needs a file argument")
            path, rest = Path(argv[at + 1]), argv[:at] + argv[at + 2 :]
            break
        if token.startswith("--config="):
            path, rest = Path(token.partition("=")[2]), argv[:at] + argv[at + 1 :]
            break
    else:
        return argv
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    given = {token.partition("=")[0] for token in rest if token.startswith("--")}
    injected: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line is not key=value: {raw!r}")
        flag = f"--{key.strip()}"
        if flag not in given:
            injected.extend([flag, value.strip()])
    if not rest:
        raise ValueError("config file given without a subcommand")
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config_file(argv)
        args = build_parser().parse_args(argv)
        for key, value in vars(args).items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                flag = "--" + key.replace("_", "-")
                raise ValueError(f"{flag} must be finite, got {value}")
        config = {key: value for key, value in vars(args).items() if key != "func"}
        return args.func(args, Path(args.out), config)
    except (ValueError, OSError) as exc:
        # Every refusal, from the flags or from the library, is a ValueError:
        # a violated precondition of the requested run, a configuration error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except linalg.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
