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
grid, and each output is the correctly rounded value of its ratio, from a
single integer division or a certified double-double evaluation (below).
This keeps the algebraic identities of the method (rows
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
or families, and each cell is still the correctly rounded value of its
exact ratio.  Three rules keep it cheap; each is decided once from the
stack's own rows, and none changes a bit of the result:

- A stack with at least as many rows as its families have cases is mostly
  repeated rows, empty ones above all.  It is estimated once per distinct
  row of (family, obs, comp, parent_obs, parent_comp), found through one
  packed int64 key, and each field is scattered back to its rows.  The
  family leads the key, so rows of two families never merge.  The estimate
  keeps the map from rows to distinct rows (``inverse``), so the score's
  ``lgamma`` pass also runs once per distinct row.
- A stack of at least CERTIFIED_MIN_CELLS cells, under phi "mar" or
  "uniform" and a prior within 2**-200 to 2**200, takes the certified path.
  Each ratio is evaluated in double-double arithmetic (Dekker's TwoSum and
  TwoProduct, numpy having no FMA, and Ogita, Rump & Oishi's compensated
  sum for each family's precision), with a bound on its relative error,
  and a rounding test (Ziv's) emits the nearest float wherever the bound
  settles it.  Each family that holds a row it leaves unsettled is
  estimated again, whole, on the exact path.  Those rows are exact ties,
  such as alpha_hat = 3 * 0.1 of an empty configuration on complete data,
  halfway between two floats, and anything the bound cannot settle.
- The certified path collapses on int64 when c * D**(c+1) < 2**53, D
  bounding every denominator b + nstar_l (``_fits_int64``): nothing
  overflows and a float64 division of two of them rounds once, as Python's
  int / int does, so it keeps this exact collapse and certifies only the
  precision and the Dirichlet.  Otherwise, as for a non-dyadic alpha such
  as 0.1 (a 2**55 grid), the collapse is certified too.

The exact path runs on Python ints (object dtype) throughout; a user phi's
rows are the exact ratios of its floats.  Its big integers appear in the
precision: each family's q parent-configuration probabilities
collapse as one row of its own, whose least common multiple spans one
denominator per distinct parent-completion count, so it grows with the
missing fraction, and the precision and the matched Dirichlet carry it.
A family's row never shares its least common multiple with another
family's, which would grow with the stack.  The certified path's cost
does not depend on those denominators, so it is flat in the missing
fraction.
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
        if not ((phi >= 0) & (phi <= 1)).all():
            # written so that NaN, which compares false, fails it too
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
    return nums, sum(nums)


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
    of one dtype: Python ints on the exact path, and int64 for the certified
    path's collapse when ``_fits_int64`` bounds its values.  Mixing the
    upper bound (a_k + nstar_k)/(b + nstar_k) with the lower extremes
    a_k/(b + nstar_l), l != k, gives

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
    # "uniform": bc_estimate refuses every other name on entry
    c = a.shape[1]
    return np.ones(a.shape, dtype=a.dtype), np.full(b.shape, c, dtype=a.dtype)


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


def _groups(sizes, cases: int) -> bool:
    """Whether ``bc_estimate`` works on the distinct count rows of a stack
    of families of ``sizes`` configurations each, over ``cases`` cases:
    when the stack has more rows than families and at least as many rows as
    its families have cases, so most rows repeat.  For one table that is
    q > 1 and q >= n."""
    rows = sum(sizes)
    return rows > len(sizes) and rows >= len(sizes) * cases


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


def _fits_int64(alpha: float, obs, comp) -> bool:
    """Whether the collapse of the rows ``obs`` and ``comp`` of c states
    under prior ``alpha`` runs in int64 with every value below 2**53.

    With alpha = w / scale in lowest terms, every denominator b + nstar_l is
    at most D = c * w + scale * (the largest row sum of ``obs`` plus the
    largest completion count), and so is the grid's scale, which multiplies
    the counts even when they are all zero.  L <= D**c.  Under MAR,
    sum_l phi_l * L / (b + nstar_l) <= L, so each numerator
    a_k * S + phi_k * nstar_k * L / (b + nstar_k) is at most
    L * (a_k + nstar_k) and each denominator b * L, both <= D**(c+1).
    Under uniform phi they are at most (c+1) * L and c * L.  Below 2**53 an
    int64 converts to float64 exactly, so float division rounds each cell
    once, as Python's int / int does.
    """
    c = obs.shape[1]
    w, scale = alpha.as_integer_ratio()
    bound = max(c * w + scale * (int(obs.sum(axis=1).max()) + int(comp.max())), scale)
    return c * bound ** (c + 1) < 2**53


def _round(num, den) -> np.ndarray:
    """Each exact ratio num / den as the nearest float (one rounding)."""
    return (num / den).astype(float)


# A stack of at least this many cells (rows estimated times child states) is
# estimated in certified double-double arithmetic when its prior allows it.
# The exact path's Python ints and the certified path's fixed cost break even
# between about 250 and 620 cells, by the stack's shape; a lower floor would
# slow the stacks that break even near the top of that range.
CERTIFIED_MIN_CELLS = 640

# Relative error bounds of one double-double step on positive operands, in
# units of u**2 with u = 2**-53: each is at least a quarter above the step's
# proven bound, a slack that covers the second-order terms and the rounding
# of the bounds' own arithmetic.
_U2 = 2.0**-106
_ADD, _MUL, _DIV = 4 * _U2, 10 * _U2, 32 * _U2


def _two_sum(a, b):
    """s + e == a + b exactly, s the nearest float (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    """TwoSum when |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """hi + lo == a with hi and lo of at most 26 bits each (Veltkamp)."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """p + e == a * b exactly (Dekker's TwoProduct; numpy has no FMA)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class _DD:
    """Double-double arrays hi + lo, |lo| <= ulp(hi) / 2, of positive values,
    each within a relative ``err`` of the exact value it stands for (Dekker,
    Numer. Math. 18, 1971).  ``+`` and ``*`` take a _DD or floats on the
    right and ``/`` on either side; each adds the step's own bound to its
    operands' bounds.  The only subtraction, a division's residual, is
    exact, so no step cancels."""

    __slots__ = ("hi", "lo", "err")
    __array_ufunc__ = None  # an array on the left defers to the methods below

    def __init__(self, hi, lo=0.0, err=0.0):
        self.hi, self.lo, self.err = hi, lo, err

    def __getitem__(self, index):
        err = self.err[index] if np.ndim(self.err) else self.err
        return _DD(self.hi[index], self.lo[index], err)

    def __add__(self, other):
        other = _dd(other)
        hi, lo = _two_sum(self.hi, other.hi)
        hi, lo = _fast_two_sum(hi, lo + (self.lo + other.lo))
        return _DD(hi, lo, np.maximum(self.err, other.err) + _ADD)

    def __mul__(self, other):
        other = _dd(other)
        hi, lo = _two_prod(self.hi, other.hi)
        hi, lo = _fast_two_sum(hi, lo + (self.hi * other.lo + self.lo * other.hi))
        return _DD(hi, lo, self.err + other.err + _MUL)

    def __truediv__(self, other):
        other = _dd(other)
        q = self.hi / other.hi
        r = other * q
        # r.hi is within a factor 2 of self.hi, so their difference is exact
        tail = ((self.hi - r.hi) + (self.lo - r.lo)) / other.hi
        hi, lo = _fast_two_sum(q, tail)
        return _DD(hi, lo, self.err + other.err + _DIV)

    def __rtruediv__(self, other):
        return _dd(other) / self


def _dd(x) -> _DD:
    return x if isinstance(x, _DD) else _DD(np.asarray(x, dtype=float))


def _sums(x: _DD, bounds) -> _DD:
    """Each segment's sum of ``x``, segment f from bounds[f] to bounds[f + 1].

    The running sum ``np.cumsum`` adds in order, so TwoSum recovers each
    step's rounding error exactly (Ogita, Rump & Oishi's Sum2, SIAM J. Sci.
    Comput. 26, 2005): a segment's sum is the difference of two running sums,
    exact as a pair, plus its steps' errors and low parts, whose float sum is
    within gamma_k of their absolute sum over k terms, in any order."""
    bounds = np.asarray(bounds)
    starts, rows = bounds[:-1], np.diff(bounds)
    running = np.cumsum(x.hi)
    before = np.concatenate(([0.0], running[:-1]))
    _, steps = _two_sum(before, x.hi)
    tails = steps + x.lo
    total = _DD(*_two_sum(running[bounds[1:] - 1], -before[starts]))
    total += np.add.reduceat(tails, starts)
    spread = np.add.reduceat(np.abs(steps) + np.abs(x.lo), starts)
    # a sum that cancels to zero or below is left unsettled
    spread = np.divide(spread, total.hi, out=np.full(len(rows), np.inf),
                       where=total.hi > 0)
    total.err = np.max(x.err) + _ADD + (rows + 1) * 2.0**-52 * spread
    return total


def _settled(x: _DD):
    """The nearest float of each value and whether it is certain: the exact
    value lies within err * hi of hi + lo, strictly inside half the gap below
    hi, the narrower of hi's two gaps, so no tie and no error can move it to
    a neighbour (Ziv's rounding test)."""
    gap = x.hi - (x.hi.view(np.int64) - 1).view(float)
    return x.hi, 2 * (np.abs(x.lo) + x.err * x.hi) < gap


def _certifiable(prior: PriorSpec) -> bool:
    """Whether no double-double step of the stack can overflow or underflow:
    with the counts below 2**53, every value and every error term of a step
    then stays far inside float64's normal range."""
    return all(2.0**-200 <= v <= 2.0**200 for v in (prior.alpha, prior.beta))


def _certified_collapse(alpha: float, phi: str, obs, comp):
    """p_hat, p_min and p_max of every row as _DD, the exact ratios of
    ``_collapse``: with phi_l = a_l / b under MAR and 1 / c under uniform,

        p_hat_k = a_k * S + phi_k * nstar_k / d_k,   S = sum_l phi_l / d_l,

    p_max_k = (a_k + nstar_k) / d_k and p_min_k = a_k / (b + max_l nstar_l),
    where a_k = alpha + obs_k, b = sum_k a_k and d_k = b + nstar_k.  The
    values are laid out (c, rows), so that a row's values broadcast along
    the contiguous axis."""
    c = obs.shape[1]
    a = _DD(*_two_sum(alpha, np.array(obs.T, dtype=float)))
    nstar = np.array(comp.T, dtype=float)
    b = _DD(*_two_prod(float(c), alpha)) + obs.sum(axis=1)
    inv = 1.0 / (b + nstar)
    t, r = inv * nstar, a * inv
    if phi == "mar":
        p_hat = a / b * (sum((r[k] for k in range(1, c)), r[0]) + t)
    else:
        p_hat = (a * sum((inv[k] for k in range(1, c)), inv[0]) + t) / float(c)
    return p_hat, a / (b + nstar.max(axis=0)), r + t


def _certified_precision(tables, prior: PriorSpec, n_obs, n_comp, counts, bounds) -> _DD:
    """alpha_hat of every row estimated as a _DD, the exact ratio of
    ``_precision_ints``: in family f, with a_j = beta + n_obs_j, b the sum of
    a_j over the family's configurations and d_j = b + nstar_j,

        alpha_hat_j = c * alpha + n_obs_j + spare_f * P_j,
        P_j = a_j / b * (S + nstar_j / d_j),   S = sum_l a_l / d_l,

    each family's S summed by ``_sums``."""
    bounds = np.asarray(bounds)
    configs, observed = np.diff(bounds), n_obs
    family = np.repeat(np.arange(len(tables)), configs)
    if counts is not None:
        configs, observed = np.add.reduceat(counts, bounds[:-1]), n_obs * counts
    b = (_DD(*_two_prod(configs.astype(float), prior.beta))
         + np.add.reduceat(observed, bounds[:-1]))
    spare = np.array([table.parent_incomplete_cases for table in tables], dtype=float)
    a = _DD(*_two_sum(prior.beta, n_obs.astype(float)))
    nstar = n_comp.astype(float)
    d = b[family] + nstar
    share = a / d
    s = _sums(share if counts is None else share * counts, bounds)[family]
    c = float(tables[0].context.child_cardinality)
    return (_DD(*_two_prod(c, prior.alpha)) + n_obs
            + a * (s + nstar / d) * (spare / b)[family])


def _exact_collapse(alpha: float, phi, obs, comp, dtype=object):
    """The collapse of every row as exact (numerators, denominators) of
    ``dtype`` integers, and the p_hat, p_min and p_max fields from it."""
    a, nstar = _on_grid(alpha, obs, comp, dtype)
    b = a.sum(axis=1, keepdims=True)
    nums, den = _collapse(a, nstar, b, *_phi_ints(phi, a, b))
    return nums, den, {
        "p_hat": _round(nums, den),
        "p_min": _round(a, b + nstar.max(axis=1, keepdims=True)),
        "p_max": _round(a + nstar, b + nstar),
    }


def _exact(tables, prior: PriorSpec, phi, columns, counts, bounds) -> dict:
    """Every field of the stack, each an exact ratio of Python ints rounded
    once: the collapse of its rows and the precision of its families."""
    obs, comp, n_obs, n_comp = columns
    nums, den, fields = _exact_collapse(prior.alpha, phi, obs, comp)
    ah_num, ah_den = _precision_ints(tables, prior, n_obs, n_comp, counts, bounds)
    try:
        fields["alpha_hat"] = _round(ah_num, ah_den)
    except OverflowError:
        # p_hat <= 1, so every other field is at most alpha_hat
        raise EstimateError(
            f"prior alpha={prior.alpha!r}, beta={prior.beta!r} is too large: "
            "the posterior precision of a configuration exceeds the largest float"
        ) from None
    fields["dirichlet"] = _round(nums * ah_num[:, None], den * ah_den[:, None])
    return fields


def _certified(tables, prior: PriorSpec, phi, columns, counts, bounds) -> dict:
    """Every field of the stack from ``_DD`` values, each the nearest float
    where ``_settled`` certifies it.  Each family that holds an unsettled
    row takes the exact path, whole."""
    obs, comp, n_obs, n_comp = columns
    alpha_hat = _certified_precision(tables, prior, n_obs, n_comp, counts, bounds)
    if _fits_int64(prior.alpha, obs, comp):
        # the int64 collapse is exact and cheap; its ratios are exact floats
        nums, den, fields = _exact_collapse(prior.alpha, phi, obs, comp, np.int64)
        p_hat, values = _DD(np.array(nums.T, dtype=float)) / den[:, 0].astype(float), {}
    else:
        fields, values = {}, dict(zip(("p_hat", "p_min", "p_max"),
                                      _certified_collapse(prior.alpha, phi, obs, comp)))
        p_hat = values["p_hat"]
    values["alpha_hat"] = alpha_hat
    values["dirichlet"] = p_hat * alpha_hat
    unsettled = np.zeros(len(obs), dtype=bool)
    for name, value in values.items():
        floats, certain = _settled(value)
        fields[name] = np.ascontiguousarray(floats.T)
        unsettled |= ~certain if certain.ndim == 1 else ~certain.all(axis=0)
    if unsettled.any():
        kept = np.unique(np.searchsorted(bounds, np.flatnonzero(unsettled), side="right") - 1)
        members = np.concatenate([np.arange(bounds[f], bounds[f + 1]) for f in kept])
        exact = _exact(
            [tables[f] for f in kept], prior, phi,
            tuple(column[members] for column in columns),
            None if counts is None else counts[members],
            [0, *itertools.accumulate(np.diff(bounds)[kept].tolist())],
        )
        for name, value in exact.items():
            fields[name][members] = value
    return fields


def bc_estimate(tables, prior: PriorSpec, phi="mar") -> BcCellEstimate:
    """Full estimate of each family of ``tables``, whose children have the
    same number of states: interval endpoints, collapsed means, precision
    and the moment-matched Dirichlet hyperparameters alpha_hat * p_hat.
    Each field holds the families' rows one after another, in table order.
    ``phi`` is "mar", "uniform" or a CompletionDistribution over every row
    of the stack.  Every per-row step runs once over the whole stack; each
    family keeps its own precision row."""
    user_phi = isinstance(phi, CompletionDistribution)
    if not (user_phi or (isinstance(phi, str) and phi in PHI_POLICIES)):
        raise EstimateError(f"unknown phi policy {phi!r}")
    sizes = [table.context.n_configs for table in tables]
    columns = tuple(np.concatenate(column) for column in zip(*(
        (table.obs_matrix(), table.comp_matrix(),
         table.parent_obs_vector(), table.parent_comp_vector())
        for table in tables
    )))
    # family f's rows run from bounds[f] to bounds[f + 1]
    bounds = [0, *itertools.accumulate(sizes)]
    groups = counts = None
    if not user_phi and _groups(sizes, tables[0].n_total):
        # the family leads the key, so two families' rows never merge and
        # each family's distinct rows stay together, in table order
        family = np.repeat(np.arange(len(tables)), sizes)
        groups = _distinct_rows(family, *columns)
    if groups is not None:
        index, inverse, counts = groups
        columns = tuple(column[index] for column in columns)
        bounds = np.searchsorted(family[index], np.arange(len(tables) + 1)).tolist()
    path = _exact
    if not user_phi and columns[0].size >= CERTIFIED_MIN_CELLS and _certifiable(prior):
        path = _certified
    fields = path(tables, prior, phi, columns, counts, bounds)
    if groups is not None:
        fields = {name: np.take(value, inverse, axis=0) for name, value in fields.items()}
        fields["inverse"] = inverse
    return BcCellEstimate(**fields)

