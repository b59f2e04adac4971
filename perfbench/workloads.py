"""The benchmark's workloads: fixed operation lists built from one seed.

Each operation is an in-process call to ``dtlab.cli.main(argv)`` or to a
public library function, writing into its own output directory.  Every call
goes through a module attribute at call time, so a tracer that swaps those
attributes sees it.  The seed fixes every input: CLI operations receive a
derived ``--seed``; library operations receive matrices drawn here with
numpy.  ``check`` audits an operation's first output with :mod:`oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from dtlab import brown, cli, linalg, measures

WORKLOADS = ("spectrum", "scan", "density-moments")

DIRAC = ["atom:0,0,1"]
SCAN_MIXTURE = ["atom:0,0,0.5", "atom:1.5,0,0.25", "disk:0,0,1,0.25"]
README_MIXTURE = ["atom:0,0,0.5", "disk:0,0,1,0.5"]


@dataclass
class Op:
    name: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], None]


def _mu_flags(specs: list[str]) -> list[str]:
    return [tok for spec in specs for tok in ("--mu", spec)]


def _cli_op(name: str, argv: list[str], check: Callable[[Path], None]) -> Op:
    def run(out: Path) -> int:
        return cli.main([*argv, "--out", str(out)])

    def audit(code: int, out: Path) -> None:
        oracles.require(code == 0, f"dtlab {argv[0]} exited {code}")
        check(out)

    return Op(name, run, audit)


def _complex_gaussian(rng: np.random.Generator, k: int) -> np.ndarray:
    """k x k iid complex Gaussians with E|entry|^2 = 1/k."""
    scale = math.sqrt(0.5 / k)
    return scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))


def _dirac_microstate(seed: int, eps: float, k: int) -> np.ndarray:
    """The matrix a brown or eeps run builds at this seed, from dtlab's sampler."""
    return brown.perturbed_microstate(
        measures.CompactMeasure.dirac(0j), 1.0, eps, k, seed
    ).z


def _op_seeds(seed: int, workload: str, count: int) -> list[int]:
    tag = WORKLOADS.index(workload)
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) for s in state]


# ----------------------------------------------------------------------------
# spectrum: large-k eigenvalues, with and without the unitary factor


def spectrum(seed: int, k_brown: int = 384, k_schur: int = 256) -> list[Op]:
    s = _op_seeds(seed, "spectrum", 3)
    ops = []
    for eps, op_seed in ((0.5, s[0]), (0.1, s[1])):
        argv = ["brown", "--seed", str(op_seed), "--no-density",
                "--k", str(k_brown), "--eps", str(eps)]
        ops.append(_cli_op(
            f"brown_eps{eps}", argv,
            lambda out, eps=eps, op_seed=op_seed: oracles.check_brown(
                out, _dirac_microstate(op_seed, eps, k_brown), eps),
        ))
    g = _complex_gaussian(np.random.default_rng(s[2]), k_schur)
    ops.append(Op(
        f"schur_k{k_schur}",
        lambda out: linalg.schur(g),
        lambda form, out: oracles.check_schur(g, form.t, form.q),
    ))
    return ops


# ----------------------------------------------------------------------------
# scan: pair counting over tiled spectra, small-k eigenvalues


def scan(seed: int, mixture=(128, 64), readme=(8, 128)) -> list[Op]:
    s = _op_seeds(seed, "scan", 2)
    cases = (
        ("scan_mixture", SCAN_MIXTURE, mixture, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], s[0]),
        ("scan_readme", DIRAC, readme, [1e-2, 1e-3, 1e-4], s[1]),
    )
    ops = []
    for name, mu, (bigN, k), grid, op_seed in cases:
        argv = ["scan", "--seed", str(op_seed), *_mu_flags(mu), "--bigN", str(bigN),
                "--k", str(k), "--eps-grid", ",".join(f"{e:g}" for e in grid)]
        ops.append(_cli_op(
            name, argv,
            lambda out, bigN=bigN, k=k, grid=grid: oracles.check_scan(out, bigN, k, grid),
        ))
    return ops


# ----------------------------------------------------------------------------
# density-moments: LU, GEMM and Python-loop layers, no large QR


def _grid_rule(z: np.ndarray, delta_reg: float) -> brown.GridSpec:
    """The brown command's density grid for a matrix z."""
    bound = 1.1 * min(linalg.spectral_radius_bound(z),
                      float(np.abs(z).sum(axis=1).max()))
    half = bound + 2.0 * delta_reg
    return brown.GridSpec.square(half, int(math.ceil(2.0 * half / delta_reg)) + 1)


def _overlap_measure(rng: np.random.Generator):
    """An atom inside two overlapping disks, positions jittered by the seed."""
    atoms = [(complex(rng.uniform(0.1, 0.3), 0.0), 0.3)]
    disks = [(0j, 1.0, 0.4), (complex(rng.uniform(0.4, 0.6), 0.0), 0.6, 0.3)]
    mu = measures.CompactMeasure(
        atoms=tuple(atoms),
        diffuse=tuple(measures.DiskPart(c, r, m) for c, r, m in disks),
    )
    return mu, atoms, disks


def density_moments(seed: int, k_grid: int = 256, k_sample: int = 512,
                    k_free: int = 512, gen_k: int = 48, trials: int = 40000,
                    selberg_grid: list[int] | None = None) -> list[Op]:
    s = _op_seeds(seed, "density-moments", 8)
    ops = []

    rng = np.random.default_rng(s[0])
    z = np.triu(_complex_gaussian(rng, k_grid), 1) + 0.5 * _complex_gaussian(rng, k_grid)

    def logdet_grid(out: Path):
        return brown.brown_logdet_grid(z, _grid_rule(z, 0.2), 0.2)

    ops.append(Op(
        f"logdet_grid_k{k_grid}", logdet_grid,
        lambda field, out: oracles.check_density(
            field.values, field.grid.xs, field.grid.ys, z, field.delta_reg),
    ))

    ops.append(_cli_op(
        "sample",
        ["sample", "--seed", str(s[1]), "--k", str(k_sample), *_mu_flags(README_MIXTURE)],
        lambda out: oracles.check_sample(out, 4),
    ))
    ops.append(_cli_op(
        "freeness",
        ["freeness", "--seed", str(s[2]), "--k", str(k_free), "--order", "4"],
        lambda out: oracles.check_freeness(out, 2, 4),
    ))
    eps, delta = 0.01, 0.2
    ops.append(_cli_op(
        "eeps",
        ["eeps", "--seed", str(s[3]), "--gen-k", str(gen_k), "--eps", str(eps),
         "--delta", str(delta), "--trials", str(trials)],
        lambda out: oracles.check_eeps(
            out, np.linalg.eigvals(_dirac_microstate(s[3], eps, gen_k)),
            eps, delta, trials),
    ))

    mu, atoms, disks = _overlap_measure(np.random.default_rng(s[4]))
    grid = [(e, d) for e in (1.0, 0.1, 0.01) for d in (0.05, 0.1, 0.3)]
    ops.append(Op(
        "overlap_bound",
        lambda out: {(e, d): measures.overlap_bound(mu, 1.0, e, d) for e, d in grid},
        lambda bounds, out: oracles.check_overlap(
            bounds, atoms, disks, 1.0, np.random.default_rng(s[5])),
    ))

    argv = ["selberg", "--seed", str(s[6])]
    if selberg_grid is not None:
        argv += ["--n-grid", ",".join(map(str, selberg_grid))]
    ops.append(_cli_op(
        "selberg", argv,
        lambda out: oracles.check_selberg(
            out, selberg_grid or [2, 4, 8, 16, 32, 64, 128, 256]),
    ))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    return {"spectrum": spectrum, "scan": scan, "density-moments": density_moments}[
        workload
    ](seed)


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """The same operations at small sizes, to pay first-call costs before timing.

    The eigenvalue sizes reach 96, where the blocked Hessenberg path starts.
    """
    if workload == "spectrum":
        return spectrum(seed, k_brown=96, k_schur=16)
    if workload == "scan":
        return scan(seed, mixture=(4, 8), readme=(2, 96))
    return density_moments(seed, k_grid=8, k_sample=8, k_free=8, gen_k=6,
                           trials=200, selberg_grid=[2, 3])
