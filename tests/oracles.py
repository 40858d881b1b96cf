"""Reference computations the tests compare the program against; the
program itself does not call them."""

import json

import numpy as np

from skwave import waves as wv
from skwave.errors import DomainError, UsageError
from skwave.functionals import state_derivative
from skwave.kernel import quadrature


def quadratic_form_LRe(p: wv.Profile, P: np.ndarray) -> float:
    """(L_Re P, P) = (L1 P, P) + 2 (phi', P')^2 by quadrature.

    The local part is integrated by parts, so only first derivatives of
    P enter: c int P'^2 + omega int P^2 - (2r+1) int phi^2r P^2.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (p.grid.n,):
        raise DomainError(f"P must have {p.grid.n} samples")
    dP = state_derivative(p.grid, P)
    r, w, c = p.params.r, p.params.omega, p.params.c
    local = (c * quadrature(p.grid, dP ** 2) + w * quadrature(p.grid, P ** 2)
             - (2 * r + 1) * quadrature(p.grid, p.phi ** (2 * r) * P ** 2))
    cross = quadrature(p.grid, p.dphi * dP)
    return local + 2 * cross * cross


def read_profile_header(path) -> dict:
    """The JSON header line of a profile CSV (``waves.write_profile_csv``)."""
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise UsageError("profile CSV lacks the JSON header line")
    return json.loads(first[2:])
