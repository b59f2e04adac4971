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
from pathlib import Path

import numpy as np

from . import brown, dimension, dyson, ensembles, linalg, measures
from .errors import ConfigError
from .rng import derive_seed

_LIMIT_NEG2LOG2 = -2.0 * math.log(2.0)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_line(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True) + "\n"


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value if not isinstance(value, Path) else str(value)
    return out


def _parse_mu(args: argparse.Namespace) -> measures.CompactMeasure:
    specs = args.mu if args.mu else ["atom:0,0,1"]
    try:
        return measures.parse_measure_spec(specs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_eigenvalues(path: Path, config: dict, lam: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_config_line(config))
        fh.write("re,im\n")
        for z in lam:
            fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")


def _write_matrix(path: Path, config: dict, a: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_config_line(config))
        fh.write("i,j,re,im\n")
        for i, (re_row, im_row) in enumerate(zip(a.real.tolist(), a.imag.tolist())):
            fh.write("".join([
                f"{i},{j},{re!r},{im!r}\n"
                for j, (re, im) in enumerate(zip(re_row, im_row))
            ]))


# ----------------------------------------------------------------------------
# Subcommands


def cmd_sample(args: argparse.Namespace) -> int:
    mu = _parse_mu(args)
    out = _outdir(args)
    config = _resolved_config(args)
    if args.block:
        a = ensembles.assemble_block_dt(mu, args.c, args.block, args.k, args.seed)
    else:
        a = ensembles.sample_dt(
            ensembles.DTParams(mu=mu, c=args.c, k=args.k, seed=args.seed),
            mode=args.mode,
        )
    _write_matrix(out / "matrix.csv", config, a)
    lam = linalg.eigenvalues(a)
    _write_eigenvalues(out / "eigenvalues.csv", config, lam)
    table = ensembles.star_moment_table(a, args.moment_order)
    _write_json(
        out / "moments.json",
        {
            "config": config,
            "moments": {str(w): _complex_pair(v) for w, v in table.items()},
        },
    )
    return 0


def cmd_brown(args: argparse.Namespace) -> int:
    mu = _parse_mu(args)
    out = _outdir(args)
    config = _resolved_config(args)
    pair = brown.perturbed_microstate(mu, args.c, args.eps, args.k, args.seed)
    grid = brown.GridSpec.covering(pair.z, args.delta_reg) if args.density else None
    lam = linalg.eigenvalues(pair.z)
    _write_eigenvalues(out / "eigenvalues.csv", config, lam)

    centers = np.array([z for z, _ in mu.atoms])
    verdicts = {}
    rows = []
    if centers.size:
        labels = (
            np.abs(lam[:, None] - centers[None, :]).argmin(axis=1)
            if centers.size > 1
            else np.zeros(lam.size, dtype=int)
        )
        for i, (z0, a0) in enumerate(mu.atoms):
            radius = measures.perturbation_radius(a0, args.c, args.eps)
            subset = lam[labels == i]
            dist = (
                brown.radial_cdf_distance(subset, z0, radius)
                if subset.size
                else 1.0
            )
            verdicts[f"atom_{i}"] = {
                "center": _complex_pair(z0),
                "radius": radius,
                "distance": dist,
                "threshold": args.threshold,
                "passed": bool(dist <= args.threshold),
            }
            if subset.size:
                ts, fs = brown.radial_cdf_curve(subset, z0, radius)
                rows.extend((i, t, f) for t, f in zip(ts, fs))
    with open(out / "radial_cdf.csv", "w", newline="") as fh:
        fh.write(_config_line(config))
        fh.write("atom,t,cdf\n")
        for i, t, f in rows:
            fh.write(f"{i},{float(t)!r},{float(f)!r}\n")

    density_mass = None
    if grid is not None:
        field = brown.brown_logdet_grid(pair.z, grid, args.delta_reg)
        field.to_csv(out / "density.csv", extra_header={"config": config})
        density_mass = field.mass

    payload = {
        "config": config,
        "disk_law": verdicts,
        "perturbation_norm": pair.perturbation_norm,
        "norm_budget": pair.norm_budget,
        "empty_perturbation": pair.empty_perturbation,
        "density_mass": density_mass,
    }
    _write_json(out / "verdict.json", payload)
    return 0 if all(v["passed"] for v in verdicts.values()) else 1


def cmd_eeps(args: argparse.Namespace) -> int:
    out = _outdir(args)
    config = _resolved_config(args)
    if args.points and args.gen_k:
        raise ConfigError("give either --points or --gen-k, not both")
    if args.points:
        pts = measures._load_point_csv(Path(args.points))
    elif args.gen_k:
        mu = _parse_mu(args)
        pair = brown.perturbed_microstate(mu, args.c, args.eps, args.gen_k, args.seed)
        pts = linalg.eigenvalues(pair.z)
    else:
        raise ConfigError("one of --points or --gen-k is required")
    n = pts.size
    est = dyson.log_separation_integral_mc(pts, args.eps, args.trials, args.seed)

    delta = args.delta
    lower = None
    lower_skip = None
    if delta is None:
        try:
            delta = dyson.delta_schedule(args.eps)
        except ConfigError as exc:
            lower_skip = str(exc)
    if delta is not None and n >= 2:
        try:
            lower = dyson.separation_integral_lower_bound(pts, args.eps, delta)
        except ConfigError as exc:
            lower_skip = str(exc)

    def record(e: dyson.LogEstimate) -> dict:
        rec = e.as_dict()
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
        "config": config,
        "unbiased": record(est.unbiased),
        "jensen": record(est.jensen),
        "lower_bound": record(lower) if lower is not None else None,
        "lower_bound_skipped": lower_skip,
        "trials": est.trials,
        "resampled": est.resampled,
        "ordering_ok": bool(ordering_ok),
    }
    _write_json(out / "eeps.json", payload)
    return 0 if ordering_ok else 1


def cmd_selberg(args: argparse.Namespace) -> int:
    grid = sorted(args.n_grid)
    if not grid:
        raise ConfigError("--n-grid is empty")
    out = _outdir(args)
    config = _resolved_config(args)
    with open(out / "selberg.csv", "w", newline="") as fh:
        fh.write(_config_line(config))
        fh.write("n,log_box_integral,rate,rate_minus_limit\n")
        rates = {}
        for n in grid:
            box = dyson.log_selberg_box_integral(n, args.eps).log_value
            rate = dyson.gamma_product_rate(n)
            rates[n] = rate
            fh.write(f"{n},{box!r},{rate!r},{rate - _LIMIT_NEG2LOG2!r}\n")
    converged = abs(rates[grid[-1]] - _LIMIT_NEG2LOG2) < abs(
        rates[grid[0]] - _LIMIT_NEG2LOG2
    )
    _write_json(
        out / "selberg.json",
        {
            "config": config,
            "limit": _LIMIT_NEG2LOG2,
            "final_rate": rates[grid[-1]],
            "converging": bool(converged),
        },
    )
    return 0 if converged else 1


def cmd_scan(args: argparse.Namespace) -> int:
    mu = _parse_mu(args)
    out = _outdir(args)
    config = _resolved_config(args)
    rows = dimension.dimension_scan(
        mu,
        args.c,
        args.bigN,
        args.k,
        args.eps_grid,
        chi_offset=args.chi_offset,
        seed=args.seed,
    )
    dimension.write_scan_csv(rows, out / "scan.csv", config)
    if not rows:
        raise ConfigError("no admissible eps in the grid; nothing to scan")
    hats = [r.delta_hat for r in rows]
    slack = 0.05
    non_decreasing = all(b >= a - slack for a, b in zip(hats, hats[1:]))
    trend_ok = non_decreasing and hats[-1] > hats[0]
    _write_json(
        out / "summary.json",
        {
            "config": config,
            "rows": [r.as_dict() for r in rows],
            "first_delta_hat": hats[0],
            "final_delta_hat": hats[-1],
            "non_decreasing_within_slack": bool(non_decreasing),
            "slack": slack,
            "trend_ok": bool(trend_ok),
        },
    )
    return 0 if trend_ok else 1


def _build_family(args: argparse.Namespace) -> list[np.ndarray]:
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
                raise ConfigError("'repeat' cannot be the first family member")
            family.append(family[-1])
        else:
            raise ConfigError(f"unknown family member kind {kind!r}")
    return family


def cmd_freeness(args: argparse.Namespace) -> int:
    out = _outdir(args)
    config = _resolved_config(args)
    family = _build_family(args)
    report = ensembles.freeness_check(family, args.order, args.gamma)
    _write_json(out / "freeness.json", {"config": config, **report.as_dict()})
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

    mu_help = (
        "measure component, repeatable: 'atom:re,im,mass', "
        "'disk:re,im,radius,mass', 'empirical:csv,mass' "
        "(space-separated fields also accepted); default atom:0,0,1"
    )

    parser = argparse.ArgumentParser(
        prog="dtlab",
        allow_abbrev=False,
        description="Random-matrix experiments: triangular models, spectral "
        "clouds, separation integrals, packing scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name, parents=[common], allow_abbrev=False, help=summary
        )

    p = add("sample", "sample a model, write matrix/spectrum/moments")
    p.add_argument("--mu", action="append", help=mu_help)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--block", type=int, default=0, help="block count (block model)")
    p.add_argument("--mode", choices=("quantile", "iid"), default="quantile")
    p.add_argument("--moment-order", type=int, default=4)
    p.set_defaults(func=cmd_sample)

    p = add("brown", "perturbed microstate and its spectral cloud")
    p.add_argument("--mu", action="append", help=mu_help)
    p.add_argument("--c", type=float, default=1.0)
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

    p = add("eeps", "separation-integral estimators on a point set")
    p.add_argument("--mu", action="append", help=mu_help)
    p.add_argument("--c", type=float, default=1.0)
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

    p = add("scan", "dimension lower-bound scan over eps")
    p.add_argument("--mu", action="append", help=mu_help)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--bigN", type=int, default=8)
    p.add_argument("--k", type=int, default=128)
    p.add_argument(
        "--eps-grid",
        type=_csv_of(float),
        default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
    )
    p.add_argument("--chi-offset", type=float, default=0.0)
    p.set_defaults(func=cmd_scan)

    p = add("freeness", "alternating-moment freeness report")
    p.add_argument("--mu", action="append", help=mu_help)
    p.add_argument("--c", type=float, default=1.0)
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
    explicit ones."""
    for at, token in enumerate(argv):
        if token == "--config":
            if at + 1 >= len(argv):
                raise ConfigError("--config needs a file argument")
            path, rest = Path(argv[at + 1]), argv[:at] + argv[at + 2 :]
            break
        if token.startswith("--config="):
            path, rest = Path(token.partition("=")[2]), argv[:at] + argv[at + 1 :]
            break
    else:
        return argv
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    injected: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        injected.extend([f"--{key.strip()}", value.strip()])
    if not rest:
        raise ConfigError("config file given without a subcommand")
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError is a ValueError; a library ValueError is a violated
        # precondition of the requested run, so both are configuration errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except linalg.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
