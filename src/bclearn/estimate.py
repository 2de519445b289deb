"""Bound-and-collapse posterior estimation for a family, or a stack of families.

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
row's denominators b + nstar_l.  ``bc_estimate`` takes a stack of tables:
families whose children have the same number of states c, such as the new
families of a greedy search level whose children have c states, or one
family alone.
Every per-row quantity is one numpy expression over the stack's
concatenated (sum of q, c) rows, with no Python loop over configurations
or families, and each cell is still one correctly rounded division.  Two
rules keep it cheap; each is decided once from the stack's own rows, and
neither changes a bit of the result:

- A stack with at least as many rows as its families have cases is mostly
  repeated rows, empty ones above all.  It is estimated once per distinct
  row of (family, obs, comp, parent_obs, parent_comp), found through one
  packed int64 key, and each field is scattered back to its rows.  The
  family leads the key, so rows of two families never merge.  The estimate
  keeps the map from rows to distinct rows (``inverse``), so the score's
  ``lgamma`` pass also runs once per distinct row.
- The stack's integers are int64 when c * D**(c+1) < 2**53, D bounding
  every denominator b + nstar_l (``_fits_int64``): nothing overflows and a
  float64 division of two of them rounds once, as Python's int / int does.
  Otherwise they are Python ints on object dtype, as for a non-dyadic
  alpha such as 0.1 (a 2**55 grid) and for a user phi, whose rows are the
  exact ratios of their floats.

Big integers appear in the precision, which always takes object dtype:
each family's q parent-configuration probabilities collapse as one row of
its own, whose least common multiple spans one denominator per distinct
parent-completion count, so it grows with the missing fraction, and the
precision and the matched Dirichlet carry it.  A family's row never shares
its least common multiple with another family's, which would grow with
the stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counts import ParentContext

ROW_SUM_TOLERANCE = 1e-12

# The named completion distributions; any other phi is a user table.
PHI_POLICIES = ("mar", "uniform")


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

    ``inverse`` is set when ``bc_estimate`` estimated the stack's distinct
    count rows: row r's fields are those of distinct row ``inverse[r]``, so
    rows with the same ``inverse`` entry have equal fields.  It is ``None``
    when every row was estimated on its own.
    """

    p_hat: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    alpha_hat: np.ndarray
    dirichlet: np.ndarray
    inverse: np.ndarray | None = None


def _normalized_int_row(row) -> tuple[list[int], int]:
    """Exactly normalized probability row as integers over its own sum."""
    fractions = [Fraction(float(v)) for v in row]
    lcm = math.lcm(*(f.denominator for f in fractions))
    nums = [f.numerator * (lcm // f.denominator) for f in fractions]
    total = sum(nums)
    if total <= 0 or any(n < 0 for n in nums):
        raise EstimateError("cannot normalize row to a probability vector")
    return nums, total


def _on_grid(weight: float, obs: np.ndarray, comp: np.ndarray, dtype=object):
    """Prior-plus-observed weights a = w + scale * obs and completion counts
    nstar = scale * comp on the integer grid of ``weight`` = w / scale in
    lowest terms, as ``dtype`` arrays (Python ints by default)."""
    w, scale = weight.as_integer_ratio()
    return w + scale * obs.astype(dtype), scale * comp.astype(dtype)


def _collapse(a, nstar, b, phi_num, phi_den):
    """Collapsed estimates of every row as (numerators, denominators).

    a[j, k] is the prior-plus-observed weight of state k in row j, b[j, 0]
    the row sum, nstar[j, k] the completion count and phi_num[j] /
    phi_den[j, 0] the exactly normalized mixing row; all are integer arrays
    of one dtype, int64 when their magnitudes are bounded (see
    ``_fits_int64``) and Python ints otherwise.  Mixing the upper bound
    (a_k + nstar_k)/(b + nstar_k) with the lower extremes a_k/(b + nstar_l),
    l != k, gives

        p_k = a_k * S + phi_k * nstar_k / (b + nstar_k),
        S   = sum_l phi_l / (b + nstar_l),

    put over phi_den * L, where L is the least common multiple of the row's
    denominators b + nstar_l.  Each step is one numpy expression over the
    whole table.
    """
    d = b + nstar
    lcm = np.lcm.reduce(d, axis=1, keepdims=True)
    weighted = phi_num * (lcm // d)
    nums = a * weighted.sum(axis=1, keepdims=True) + weighted * nstar
    return nums, phi_den * lcm


def _phi_ints(policy, a, b):
    """Exactly normalized phi rows as (numerators, denominators) arrays
    shaped like ``a`` and ``b``."""
    if isinstance(policy, CompletionDistribution):
        if policy.phi.shape != a.shape:
            raise EstimateError(
                f"phi is {policy.phi.shape}, the family needs {a.shape}"
            )
        rows = [_normalized_int_row(row) for row in policy.phi]
        return (np.array([nums for nums, _ in rows], dtype=object),
                np.array([[den] for _, den in rows], dtype=object))
    if policy == "mar":
        return a, b
    if policy == "uniform":
        c = a.shape[1]
        return np.ones(a.shape, dtype=a.dtype), np.full(b.shape, c, dtype=a.dtype)
    raise EstimateError(f"unknown phi policy {policy!r}")


def phi_from_rows(ctx: ParentContext, rows: dict[str, list[float]],
                  variables) -> CompletionDistribution:
    """Build a user-supplied phi from {configuration label: probability row}."""
    try:
        table = ctx.table_from_rows(rows, variables)
    except ValueError as exc:
        raise EstimateError(f"phi table: {exc}") from exc
    return CompletionDistribution(table)


def _precision_ints(tables, prior: PriorSpec, n_obs, n_comp, counts, bounds):
    """Posterior precision per configuration as (numerators, denominators),
    one entry per row estimated.

    Fully parent-observed cases update their configuration exactly; the
    remainder is shared out in proportion to the collapsed estimate of the
    configuration probabilities, so the total precision gained is exactly
    the number of cases.  ``n_obs`` and ``n_comp`` are the parent counts of
    the rows estimated, family f's from ``bounds[f]`` to ``bounds[f + 1]``;
    when they are distinct rows, ``counts`` says how many configurations
    each stands for.

    Each family's configuration probabilities are the MAR collapse of one
    row, its configurations, under the Dirichlet(beta) prior: with
    a_j = beta + n_obs_j and b = sum_j a_j,

        P_j = a_j * S + a_j * nstar_j / (b + nstar_j),
        S   = sum_l a_l / (b + nstar_l),

    over b * L, L the least common multiple of the family's distinct
    denominators b + nstar_l.  The families' rows are of any length, so
    their sums are ``np.add.reduceat`` segments, and each family takes its
    own L.
    """
    alpha, scale = prior.alpha.as_integer_ratio()
    starts = bounds[:-1]
    rows = [hi - lo for lo, hi in zip(starts, bounds[1:])]
    family = np.repeat(np.arange(len(tables)), rows)

    def total(x):
        """Each family's sum of ``x`` over its configurations."""
        return np.add.reduceat(x if counts is None else x * counts, starts)

    def per_row(values):
        """Each family's value on every row of the family."""
        return np.array(values, dtype=object)[family]

    a, nstar = _on_grid(prior.beta, n_obs, n_comp)
    sums = total(a).tolist()
    b = per_row(sums)
    d = b + nstar
    dens = d.tolist()
    lcms = [math.lcm(*set(dens[lo:hi])) for lo, hi in zip(starts, bounds[1:])]
    weighted = a * (per_row(lcms) // d)
    p_num = a * total(weighted)[family] + weighted * nstar
    # the big denominators b * L are multiplied once per family
    p_dens = [s * lcm for s, lcm in zip(sums, lcms)]
    spare = per_row([scale * t.parent_incomplete_cases for t in tables])
    row_prior = tables[0].context.child_cardinality * alpha
    nums = (row_prior + scale * n_obs.astype(object)) * per_row(p_dens) + spare * p_num
    return nums, per_row([scale * p_den for p_den in p_dens])


def _groups(tables) -> bool:
    """Whether ``bc_estimate`` works on the stack's distinct count rows:
    when the stack has more rows than families and at least as many rows as
    its families have cases, so most rows repeat.  For one table that is
    q > 1 and q >= n."""
    rows = sum(table.context.n_configs for table in tables)
    return rows > len(tables) and rows >= len(tables) * tables[0].n_total


def _distinct_rows(*columns):
    """(index, inverse, counts) of the distinct rows of the count columns, as
    ``np.unique`` returns them for one int64 key per row: the row's index in
    a C-ordered array whose dimensions are each column's maximum + 1, the
    first column most significant.  None when the key could pass 2**62."""
    rows = np.column_stack(columns)
    radices = (rows.max(axis=0) + 1).tolist()
    if math.prod(radices) > 2**62:
        return None
    key = np.ravel_multi_index(rows.T, radices)
    _, index, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return index, inverse, counts


def _fits_int64(c: int, bound: int) -> bool:
    """Whether the collapse of rows of c states whose denominators b + nstar_l
    are at most ``bound`` runs in int64 with every value below 2**53.

    L <= bound**c.  Under MAR, sum_l phi_l * L / (b + nstar_l) <= L, so each
    numerator a_k * S + phi_k * nstar_k * L / (b + nstar_k) is at most
    L * (a_k + nstar_k) and each denominator b * L, both <= bound**(c+1).
    Under uniform phi they are at most (c+1) * L and c * L.  Below 2**53 an
    int64 converts to float64 exactly, so float division rounds each cell once,
    as Python's int / int does.
    """
    return c * bound ** (c + 1) < 2**53


def _round(num, den) -> np.ndarray:
    """Each exact ratio num / den as the nearest float (one rounding)."""
    return (num / den).astype(float)


def bc_estimate(tables, prior: PriorSpec, phi="mar") -> BcCellEstimate:
    """Full estimate of each family of ``tables``, whose children have the
    same number of states: interval endpoints, collapsed means, precision
    and the moment-matched Dirichlet hyperparameters alpha_hat * p_hat.
    Each field holds the families' rows one after another, in table order.
    ``phi`` is "mar", "uniform" or a CompletionDistribution over every row
    of the stack.  Every per-row step runs once over the whole stack; each
    family keeps its own precision row."""
    user_phi = isinstance(phi, CompletionDistribution)
    sizes = [table.context.n_configs for table in tables]
    columns = tuple(np.concatenate(column) for column in zip(*(
        (table.obs_matrix(), table.comp_matrix(),
         table.parent_obs_vector(), table.parent_comp_vector())
        for table in tables
    )))
    # family f's rows run from bounds[f] to bounds[f + 1]
    bounds = [0, *itertools.accumulate(sizes)]
    groups = counts = None
    if not user_phi and _groups(tables):
        # the family leads the key, so two families' rows never merge and
        # each family's distinct rows stay together, in table order
        family = np.repeat(np.arange(len(tables)), sizes)
        groups = _distinct_rows(family, *columns)
    if groups is not None:
        index, inverse, counts = groups
        columns = tuple(column[index] for column in columns)
        bounds = np.searchsorted(family[index], np.arange(len(tables) + 1)).tolist()
    obs, comp, n_obs, n_comp = columns
    c = tables[0].context.child_cardinality
    w, scale = prior.alpha.as_integer_ratio()
    # every denominator b + nstar_l is at most this, and so is the grid's
    # scale, which multiplies the counts even when they are all zero
    bound = max(c * w + scale * (int(obs.sum(axis=1).max()) + int(comp.max())), scale)
    dtype = object if user_phi or not _fits_int64(c, bound) else np.int64
    a, nstar = _on_grid(prior.alpha, obs, comp, dtype)
    b = a.sum(axis=1, keepdims=True)
    nums, den = _collapse(a, nstar, b, *_phi_ints(phi, a, b))
    ah_num, ah_den = _precision_ints(tables, prior, n_obs, n_comp, counts, bounds)
    try:
        alpha_hat = _round(ah_num, ah_den)
    except OverflowError:
        # p_hat <= 1, so every other field is at most alpha_hat
        raise EstimateError(
            f"prior alpha={prior.alpha!r}, beta={prior.beta!r} is too large: "
            "the posterior precision of a configuration exceeds the largest float"
        ) from None
    fields = {
        "p_hat": _round(nums, den),
        "p_min": _round(a, b + nstar.max(axis=1, keepdims=True)),
        "p_max": _round(a + nstar, b + nstar),
        "alpha_hat": alpha_hat,
        "dirichlet": _round(nums.astype(object, copy=False) * ah_num[:, None],
                            den.astype(object, copy=False) * ah_den[:, None]),
    }
    if groups is not None:
        fields = {name: np.take(value, inverse, axis=0) for name, value in fields.items()}
        fields["inverse"] = inverse
    return BcCellEstimate(**fields)

