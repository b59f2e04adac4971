"""Numerical laboratory for triangular random-matrix models.

Samplers for diagonal-plus-triangular ensembles, spectral clouds of their
perturbations, log-domain separation integrals, and the packing-number scan
that estimates a free-entropy dimension lower bound.  See the README for
the experiment catalogue; the ``dtlab`` command drives everything in batch.
Library callers import the submodules, e.g. ``from dtlab import linalg``.
"""

__version__ = "0.1.0"
