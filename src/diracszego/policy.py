"""Shared numeric tolerances.

There is one fixed policy, ``DEFAULT_POLICY``. Every tolerance decision in the
package reads it; no function takes a per-call override. The Hermitian,
positive-definiteness and rank tolerances are relative to the norm of the
matrix being checked. ``tau_identity`` bounds the residuals of internal
structural identities, at the scale each check states (some are absolute),
and ``cond_limit`` bounds condition numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    tau_herm: float = 1e-10      # relative asymmetry allowed in Hermitian checks
    tau_pd: float = 1e-10        # relative min-eigenvalue threshold for PD checks
    tau_rank: float = 1e-9       # relative eigenvalue cut for numerical rank
    tau_identity: float = 1e-8   # internal structural assertions (Phi1, J-normalization)
    cond_limit: float = 1e12     # resolvents and leading blocks beyond this are singular


DEFAULT_POLICY = NumericPolicy()
