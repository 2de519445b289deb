"""Observed and possible-completion counts for one (child, parent-set) family.

Counting is family-local: entries of a case outside the child and its
parents are ignored entirely.  A case is *incomplete* for the family when
its child and/or at least one parent entry is missing; such a case
contributes one possible completion to every (parent configuration,
child state) cell its observed family entries are consistent with.

The tally first aggregates identical family patterns, then expands each
distinct pattern once, with numpy: every missing parent repeats the
pattern's rows across its states.  Pattern expansion is bounded by the
family's joint cardinality, so the cost is essentially independent of how
many entries are missing.  Counts are dense int64 arrays over all q parent
configurations.

A case's pattern code packs its family entries as mixed-radix digits
entry + 1 (missing is digit 0) over the prod(card + 1) possible patterns.
It is built in place from the dataset's contiguous int16 columns, in the
narrowest of int16/int32/int64 that holds that product, with the +1 of
every digit added once as a single constant.  Distinct codes are counted
with one ``np.bincount``, whose table has a slot for every code up to the
largest one present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MISSING, Dataset


@dataclass(frozen=True)
class ParentContext:
    """A child variable together with an ordered parent set.

    Parent configurations are indexed mixed-radix in parent order with the
    last parent varying fastest, so ``config_index`` and ``config_states``
    form a bijection between joint parent states and ``range(n_configs)``.
    """

    child: int
    parents: tuple[int, ...]
    child_cardinality: int
    parent_cardinalities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(
            self, "parent_cardinalities", tuple(self.parent_cardinalities)
        )
        if self.child in self.parents:
            raise ValueError("child cannot be its own parent")
        if len(set(self.parents)) != len(self.parents):
            raise ValueError("duplicate parent indices")
        if len(self.parents) != len(self.parent_cardinalities):
            raise ValueError("one cardinality per parent required")

    @classmethod
    def for_dataset(cls, dataset: Dataset, child: int, parents) -> "ParentContext":
        parents = tuple(parents)
        cards = dataset.cardinalities
        return cls(
            child=child,
            parents=parents,
            child_cardinality=cards[child],
            parent_cardinalities=tuple(cards[p] for p in parents),
        )

    @property
    def n_configs(self) -> int:
        q = 1
        for c in self.parent_cardinalities:
            q *= c
        return q

    def config_index(self, parent_states) -> int:
        j = 0
        for state, card in zip(parent_states, self.parent_cardinalities):
            if not 0 <= state < card:
                raise ValueError(f"parent state {state} out of range [0, {card})")
            j = j * card + state
        return j

    def config_states(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.n_configs:
            raise ValueError(f"configuration index {j} out of range")
        states = []
        for card in reversed(self.parent_cardinalities):
            states.append(j % card)
            j //= card
        return tuple(reversed(states))

    def config_label(self, j: int, variables=None) -> str:
        """Comma-joined state labels (or indices) of configuration ``j``."""
        states = self.config_states(j)
        if variables is None:
            return ",".join(str(s) for s in states)
        return ",".join(
            variables[p].states[s] for p, s in zip(self.parents, states)
        )


@dataclass
class CountTable:
    """Per-family counts over parent configurations j and child states k.

    obs_matrix()[j, k]       cases fully observed on child and parents
    comp_matrix()[j, k]      incomplete cases consistent with (j, k)
    parent_obs_vector()[j]   cases fully observed on all parents
    parent_comp_vector()[j]  cases missing >= 1 parent entry, observed
                             parents consistent with configuration j

    Each is a dense int64 array, (q, c) or (q,), returned without a copy.
    """

    context: ParentContext
    n_total: int
    incomplete_cases: int
    parent_incomplete_cases: int
    _obs: np.ndarray
    _comp: np.ndarray
    _parent_obs: np.ndarray
    _parent_comp: np.ndarray

    @property
    def is_complete(self) -> bool:
        return self.incomplete_cases == 0

    def obs_matrix(self) -> np.ndarray:
        return self._obs

    def comp_matrix(self) -> np.ndarray:
        return self._comp

    def parent_obs_vector(self) -> np.ndarray:
        return self._parent_obs

    def parent_comp_vector(self) -> np.ndarray:
        return self._parent_comp


def _parent_strides(ctx: ParentContext) -> list[int]:
    strides = [1] * len(ctx.parent_cardinalities)
    for i in range(len(strides) - 2, -1, -1):
        strides[i] = strides[i + 1] * ctx.parent_cardinalities[i + 1]
    return strides


_CODE_TYPES = (np.int16, np.int32, np.int64)


def _bincount(index, weights, length: int) -> np.ndarray:
    """Integer sums of ``weights`` per index; case counts are far below 2**53,
    so the float accumulation is exact."""
    return np.bincount(index, weights=weights, minlength=length).astype(np.int64)


def _pattern_codes(dataset: Dataset, ctx: ParentContext) -> np.ndarray:
    """Each case's family pattern code, in the narrowest integer type that
    holds all prod(card + 1) of them."""
    cards = (ctx.child_cardinality,) + ctx.parent_cardinalities
    size = math.prod(card + 1 for card in cards)
    code_type = next((t for t in _CODE_TYPES if size <= np.iinfo(t).max), None)
    if code_type is None:
        raise ValueError(
            f"the family of {dataset.variables[ctx.child].name} has {size} "
            "entry patterns, more than a 64-bit code can index"
        )
    # Horner over the raw columns; ``offset`` is the +1 of every digit,
    # added once at the end.
    codes = dataset.codes[:, ctx.child].astype(code_type)
    offset = 1
    for p, card in zip(ctx.parents, ctx.parent_cardinalities):
        codes *= card + 1
        codes += dataset.codes[:, p]
        offset = offset * (card + 1) + 1
    codes += offset
    return codes


def tally(dataset: Dataset, ctx: ParentContext) -> CountTable:
    """Count observed cases and possible completions for one family."""
    cards = (ctx.child_cardinality,) + ctx.parent_cardinalities
    q, c = ctx.n_configs, ctx.child_cardinality
    multiplicity = np.bincount(_pattern_codes(dataset, ctx))
    patterns = np.flatnonzero(multiplicity)
    m = multiplicity[patterns]

    # Decode the distinct patterns (missing back to -1) and locate each at
    # the configuration its observed parents fix, missing parents at state 0.
    digits, rest = [], patterns
    for card in reversed(cards):
        digits.append(rest % (card + 1) - 1)
        rest = rest // (card + 1)
    child, parent_digits = digits[-1], digits[-2::-1]
    strides = _parent_strides(ctx)
    config = np.zeros(len(m), dtype=np.int64)
    parent_missing = np.zeros(len(m), dtype=bool)
    for d, stride in zip(parent_digits, strides):
        config += np.maximum(d, 0) * stride
        parent_missing |= d == MISSING
    complete = ~parent_missing & (child != MISSING)

    # Fan every incomplete pattern out across the states of each missing
    # parent; ``src`` maps expanded rows back to their pattern.
    src = np.flatnonzero(~complete)
    j = config[src]
    for d, card, stride in zip(parent_digits, ctx.parent_cardinalities, strides):
        fan = d[src] == MISSING
        src = np.concatenate([src[~fan], np.repeat(src[fan], card)])
        j = np.concatenate([j[~fan], (j[fan, None] + stride * np.arange(card)).ravel()])
    w, k = m[src], child[src]
    known = k != MISSING
    comp = _bincount(j[known] * c + k[known], w[known], q * c).reshape(q, c)
    comp += _bincount(j[~known], w[~known], q)[:, None]
    spread = parent_missing[src]

    return CountTable(
        context=ctx,
        n_total=dataset.n_cases,
        incomplete_cases=int(m[~complete].sum()),
        parent_incomplete_cases=int(m[parent_missing].sum()),
        _obs=_bincount(
            config[complete] * c + child[complete], m[complete], q * c
        ).reshape(q, c),
        _comp=comp,
        _parent_obs=_bincount(config[~parent_missing], m[~parent_missing], q),
        _parent_comp=_bincount(j[spread], w[spread], q),
    )
