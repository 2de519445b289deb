"""Bound-and-collapse posterior estimation for one family.

For each parent configuration the observed counts and the completion
counts give two extreme estimates per cell: the upper one assigns every
consistent completion of the incomplete cases to the cell itself, the
lower one assigns the largest completion count of the row to a single
rival state.  These are the extreme completions of bound-and-collapse, not
the envelope over completions: spreading the completions over several
rival states can give a posterior mean below the lower endpoint.  The
interval is collapsed to a point by mixing the extremes with the
completion-probability vector phi, and the posterior precision is
estimated by distributing parent-incomplete cases according to a
bound-and-collapse estimate of the parent configuration probabilities.
The prior is one uniform Dirichlet per family: weight alpha on every
cell and, for the precision estimate, beta on every parent configuration.

All cell values are exact ratios of integers: alpha and beta are written
as integer ratios (floats convert exactly), counts are put on the same
grid, and each output is produced by a single correctly rounded integer
division.  This keeps the algebraic identities of the method (rows
summing to one, exact reduction on complete data, the prior-mean limit
under total missingness, conservation of total precision) true up to one
rounding, so downstream checks can compare against closed forms without
tolerance for accumulation error.

The collapse of a row uses p_k = a_k * S + phi_k * nstar_k / (b + nstar_k)
with S = sum_l phi_l / (b + nstar_l), over the least common multiple of the
distinct denominators b + nstar_l.  Counts take few distinct values, so
that multiple stays small, and a family costs O(n + q) integer operations
for n cases and q parent configurations, including the collapse of the q
parent-configuration probabilities behind the precision estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counts import CountTable, ParentContext

ROW_SUM_TOLERANCE = 1e-12


class EstimateError(ValueError):
    """Raised for invalid priors or completion distributions."""


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet hyperparameters shared by every family.

    ``alpha`` weights imaginary cases per (configuration, child state) cell;
    ``beta`` weights each parent configuration in a separate Dirichlet over
    parent configurations, used only for the precision estimate.  Both must
    be finite and strictly positive.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            if not (0.0 < value < math.inf):
                raise EstimateError(
                    f"{name} must be finite and strictly positive, got {value!r}"
                )
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CompletionDistribution:
    """Per-configuration probabilities that an incomplete case completes
    to each child state, as supplied by the user."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2:
            raise EstimateError("phi must be a (q, c) matrix")
        if (phi < 0).any() or (phi > 1).any():
            raise EstimateError("phi entries must lie in [0, 1]")
        sums = phi.sum(axis=1)
        if np.abs(sums - 1.0).max() > ROW_SUM_TOLERANCE:
            raise EstimateError("each phi row must sum to 1 within 1e-12")
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BcCellEstimate:
    """Collapsed estimates, interval endpoints, precision and the matched
    Dirichlet, each indexed [configuration, child state].

    ``p_max[j, k]`` is the posterior mean of state k when every completion
    consistent with configuration j goes to k.  ``p_min[j, k]`` is the
    bound-and-collapse lower extreme a_k / (b + max_l nstar_l): all of the
    largest completion count goes to a single state other than k.  ``p_hat``
    mixes the extremes and lies between them, but these are not the
    envelope over completions: one that spreads completions over several
    rival states can give a posterior mean below ``p_min``.
    """

    p_hat: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    alpha_hat: np.ndarray
    dirichlet: np.ndarray


class _FamilyInts:
    """Integer view of one family's prior and counts.

    alpha is written a/scale in lowest terms (scale is 1 for an integer
    alpha); counts are multiplied by the same grid so that every derived
    quantity is an exact integer ratio.  ``rows[j]`` is (a, nstar, b) with
    a[k] = alpha + n_k and b = c * alpha + n_j, all on the grid;
    ``alpha_sum`` is c * alpha on the grid.
    """

    def __init__(self, table: CountTable, prior: PriorSpec):
        ctx = table.context
        self.q, self.c = ctx.n_configs, ctx.child_cardinality
        alpha, self.scale = prior.alpha.as_integer_ratio()
        scale = self.scale
        self.alpha_sum = self.c * alpha
        self.rows = []
        for obs, comp in zip(table.obs_matrix().tolist(), table.comp_matrix().tolist()):
            a = [alpha + scale * n for n in obs]
            self.rows.append((a, [scale * n for n in comp], sum(a)))


def _normalized_int_row(row) -> tuple[list[int], int]:
    """Exactly normalized probability row as integers over its own sum."""
    fractions = [Fraction(float(v)) for v in row]
    lcm = math.lcm(*(f.denominator for f in fractions))
    nums = [f.numerator * (lcm // f.denominator) for f in fractions]
    total = sum(nums)
    if total <= 0 or any(n < 0 for n in nums):
        raise EstimateError("cannot normalize row to a probability vector")
    return nums, total


def _collapse_ints(a, nstar, b, phi_num, phi_den) -> tuple[list[int], int]:
    """Collapsed estimates for one configuration as (numerators, denominator).

    a[k] is the prior-plus-observed weight of state k, b their sum, nstar[k]
    the completion count, phi the exactly normalized mixing row.  Mixing the
    upper bound (a_k + nstar_k)/(b + nstar_k) with the lower extremes
    a_k/(b + nstar_l), l != k, gives

        p_k = a_k * S + phi_k * nstar_k / (b + nstar_k),
        S   = sum_l phi_l / (b + nstar_l),

    put over phi_den * L, where L is the least common multiple of the
    *distinct* denominators b + nstar_l.  Counts take few distinct values,
    so L stays small and a row of length q costs O(q) integer operations.
    """
    denominators = [b + n for n in nstar]
    lcm = math.lcm(*set(denominators))
    shares = [lcm // d for d in denominators]
    total = sum(p * s for p, s in zip(phi_num, shares))
    nums = [
        a_k * total + p * n * s
        for a_k, p, n, s in zip(a, phi_num, nstar, shares)
    ]
    return nums, phi_den * lcm


def _phi_int_rows(ints: _FamilyInts, policy):
    """Exactly normalized phi rows as (numerators, denominator) pairs."""
    if isinstance(policy, CompletionDistribution):
        return [_normalized_int_row(policy.phi[j]) for j in range(ints.q)]
    if policy == "mar":
        return [(a, b) for a, _, b in ints.rows]
    if policy == "uniform":
        return [([1] * ints.c, ints.c) for _ in range(ints.q)]
    raise EstimateError(f"unknown phi policy {policy!r}")


def phi_from_rows(ctx: ParentContext, rows: dict[str, list[float]],
                  variables=None) -> CompletionDistribution:
    """Build a user-supplied phi from {configuration label: probability row}."""
    q, c = ctx.n_configs, ctx.child_cardinality
    phi = np.empty((q, c))
    seen = set()
    for j in range(q):
        label = ctx.config_label(j, variables)
        if label not in rows:
            raise EstimateError(f"phi table is missing configuration {label!r}")
        row = rows[label]
        if len(row) != c:
            raise EstimateError(
                f"phi row for {label!r} has {len(row)} entries, expected {c}"
            )
        phi[j] = row
        seen.add(label)
    extra = set(rows) - seen
    if extra:
        raise EstimateError(f"phi table has unknown configurations: {sorted(extra)}")
    return CompletionDistribution(phi)


def _parent_p_hat_ints(table: CountTable, prior: PriorSpec):
    """Collapsed parent-configuration probabilities as (numerators, den),
    with the MAR completion row of the parent-configuration Dirichlet."""
    beta, scale = prior.beta.as_integer_ratio()
    a = [beta + scale * n for n in table.parent_obs_vector().tolist()]
    nstar = [scale * n for n in table.parent_comp_vector().tolist()]
    b = sum(a)
    return _collapse_ints(a, nstar, b, a, b)


def _precision_ints(table: CountTable, prior: PriorSpec, ints: _FamilyInts):
    """Posterior precision per configuration as (numerators, denominator).

    Fully parent-observed cases update their configuration exactly; the
    remainder is shared out in proportion to the collapsed estimate of the
    configuration probabilities, so the total precision gained is exactly
    the number of cases.
    """
    p_num, p_den = _parent_p_hat_ints(table, prior)
    scale = ints.scale
    spare = scale * table.parent_incomplete_cases
    nums = [
        (ints.alpha_sum + scale * n) * p_den + spare * p
        for n, p in zip(table.parent_obs_vector().tolist(), p_num)
    ]
    return nums, scale * p_den


def bc_estimate(table: CountTable, prior: PriorSpec, phi="mar") -> BcCellEstimate:
    """Full per-family estimate: interval endpoints, collapsed means,
    precision and the moment-matched Dirichlet hyperparameters
    alpha_hat * p_hat.  ``phi`` is "mar", "uniform" or a
    CompletionDistribution."""
    ints = _FamilyInts(table, prior)
    phi_rows = _phi_int_rows(ints, phi)
    alpha_hat_num, alpha_hat_den = _precision_ints(table, prior, ints)

    p_hat, p_max, p_min, dirichlet = [], [], [], []
    for (a, nstar, b), phi_row, weight in zip(ints.rows, phi_rows, alpha_hat_num):
        nums, den = _collapse_ints(a, nstar, b, *phi_row)
        top = b + max(nstar)
        dir_den = den * alpha_hat_den
        p_hat.append([n / den for n in nums])
        p_max.append([(a_k + n) / (b + n) for a_k, n in zip(a, nstar)])
        p_min.append([a_k / top for a_k in a])
        dirichlet.append([n * weight / dir_den for n in nums])
    return BcCellEstimate(
        p_hat=np.array(p_hat),
        p_min=np.array(p_min),
        p_max=np.array(p_max),
        alpha_hat=np.asarray([n / alpha_hat_den for n in alpha_hat_num]),
        dirichlet=np.array(dirichlet),
    )
