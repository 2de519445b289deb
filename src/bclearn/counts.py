"""Observed and possible-completion counts for one (child, parent-set) family.

Counting is family-local: entries of a case outside the child and its
parents are ignored entirely.  A case is *incomplete* for the family when
its child and/or at least one parent entry is missing; such a case
contributes one possible completion to every (parent configuration,
child state) cell its observed family entries are consistent with.

Every count comes from a *joint* table: a dense int64 table with one axis
per variable it covers, where slot 0 of an axis means missing and slot
s + 1 state s, and each slot counts the cases with that entry pattern.
``tally`` turns any joint that covers a family into the family's
*marginal*: one ``np.einsum`` sums the joint over every other axis and
orders what is left as the parents then the child.  Integer sums are
exact, so every joint gives the same counts.

``joints`` is the one counting rule; a scorer reaches ``tally`` one way,
``score.FamilyScorer._add``, which hands each new family's key (its
``ParentContext.of`` arguments) with its joint from ``joints`` and keeps
the joints its last call counted or reused, to a bound in bytes.  A family
whose variables all lie in a kept joint takes the first such joint, found
through an index of the kept joints by variable, and counts no case.  The
other families go greedily, in order and whatever their child, into packs
whose joint over the union of their variables has at most
``GROUP_PATTERNS`` slots; one ``np.bincount`` of each case's pattern code,
built from the dataset's contiguous int16 columns in int16 or int32,
counts a whole pack (Moore & Lee's cached sufficient statistics, JAIR 8,
1998).  A family left alone in its pack is handed ``None`` and counted,
and freed, by ``tally`` from its own table.  So a search level counts no
family that a joint kept from the level before it covers, and when the
first level fits one pack, that pack covers every later family and the
search makes one pass over the cases.

In the marginal, slicing slot 0 off every parent axis leaves the cases
observed on all parents.  Adding each parent axis's slot 0 into every
state of that axis, one axis at a time (a sum over subsets of the missing
parents), leaves for each configuration every case consistent with it.
The cost is the table's size plus one pass over the cases, whatever the
number of missing entries; every count is int64.  ``_cases_table``, the
only allocator of a pattern table, refuses one of more than
``MAX_PATTERNS`` slots before allocating it, naming the family; ``joints``
checks every family it packs when it is called, before it counts any.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import Dataset


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
    def of(cls, variables, child: int, parents) -> "ParentContext":
        """The family of ``child`` given ``parents`` over ``variables``, a
        dataset's or a model's, reading only the family's own
        cardinalities."""
        parents = tuple(parents)
        return cls(
            child=child,
            parents=parents,
            child_cardinality=variables[child].cardinality,
            parent_cardinalities=tuple(variables[p].cardinality for p in parents),
        )

    @property
    def n_configs(self) -> int:
        return math.prod(self.parent_cardinalities)

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

    def config_label(self, j: int, variables) -> str:
        """Comma-joined parent state labels of configuration ``j``."""
        states = self.config_states(j)
        return ",".join(
            variables[p].states[s] for p, s in zip(self.parents, states)
        )

    def table_from_rows(self, rows, variables) -> np.ndarray:
        """The (q, c) table of a {configuration label: row} mapping, the
        inverse of ``config_label``: every configuration needs a row of c
        finite entries, and a label naming no configuration is refused."""
        if not isinstance(rows, Mapping):
            raise ValueError(
                f"rows must be an object {{configuration label: row}}, "
                f"not {type(rows).__name__}"
            )
        labels = [self.config_label(j, variables) for j in range(self.n_configs)]
        table = np.empty((self.n_configs, self.child_cardinality))
        for j, label in enumerate(labels):
            if label not in rows:
                raise ValueError(f"missing configuration {label!r}")
            row = rows[label]
            if np.ndim(row) != 1:
                raise ValueError(f"row {label!r} is not a list of entries: {row!r}")
            if len(row) != self.child_cardinality:
                raise ValueError(
                    f"row {label!r} has {len(row)} entries, "
                    f"expected {self.child_cardinality}"
                )
            table[j] = row
            if not np.isfinite(table[j]).all():
                raise ValueError(f"row {label!r} has a non-finite entry: {row!r}")
        unknown = set(rows) - set(labels)
        if unknown:
            raise ValueError(f"unknown configurations {sorted(unknown)}")
        return table


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


# Every family pattern gets one int64 slot of the dense table: 2**26 slots is
# 512 MiB.
MAX_PATTERNS = 2**26

# The most slots of one joint table that ``joints`` counts a pack of
# families into.  Every code of such a table fits ``_codes``' int16.
GROUP_PATTERNS = 2**12


def _codes(dataset: Dataset, members) -> np.ndarray:
    """Each case's entries of ``members`` as mixed-radix digits entry + 1,
    the last member fastest, in int16 when all prod(card + 1) codes fit,
    else int32."""
    cards = [dataset.variables[member].cardinality for member in members]
    size = math.prod(card + 1 for card in cards)
    code_type = np.int16 if size <= np.iinfo(np.int16).max else np.int32
    # Horner over the raw columns; ``offset`` is the +1 of every digit,
    # added once at the end.
    codes = dataset.codes[:, members[0]].astype(code_type)
    offset = 1
    for member, card in zip(members[1:], cards[1:]):
        codes *= card + 1
        codes += dataset.codes[:, member]
        offset = offset * (card + 1) + 1
    codes += offset
    return codes


def _cases_table(dataset: Dataset, members) -> np.ndarray:
    """The pattern table of ``members``, one axis each in that order,
    counted case by case; a table above ``MAX_PATTERNS`` slots is refused,
    as the family of the last member, before anything is allocated."""
    shape = tuple(dataset.variables[member].cardinality + 1 for member in members)
    size = math.prod(shape)
    _refuse_wide(dataset, members[-1], size)
    return np.bincount(_codes(dataset, members), minlength=size).reshape(shape)


def _refuse_wide(dataset: Dataset, child: int, size: int) -> None:
    """Refuse a family of ``child`` with ``size`` entry patterns above
    ``MAX_PATTERNS``, before its table is allocated."""
    if size > MAX_PATTERNS:
        raise ValueError(
            f"the family of {dataset.variables[child].name} has {size} "
            f"entry patterns, above the limit of {MAX_PATTERNS} (2**26)"
        )


def joints(dataset: Dataset, families, kept=()):
    """An iterator of the joint ``tally`` takes for each ``(child, sorted
    parents)`` key of ``families``, in order: the first joint of ``kept``,
    ``(table, axes)`` joints counted before, that covers the family.  An
    index by variable finds it: only the kept joints that hold the family's
    child are looked at.

    Every other family is checked against ``MAX_PATTERNS`` by the call
    itself, before any is counted, and goes greedily into packs whose joint
    table, one axis per variable of the pack in index order, has at most
    ``GROUP_PATTERNS`` slots.  Each pack's joint is counted case by case
    once, when the iterator reaches it, and handed to every family of the
    pack; a family alone in its pack gets ``None``, so that ``tally``
    counts, and frees, its own table.
    """
    slots = [card + 1 for card in dataset.cardinalities]
    holding: dict[int, list] = {}  # variable -> (axes, joint) of kept joints
    for joint in kept:
        axes = set(joint[1])
        for axis in axes:
            holding.setdefault(axis, []).append((axes, joint))
    pack = None  # [variables, joint slots, number of families]
    plan = []  # per family: (the kept joint covering it, or None; its pack)
    for child, parents in families:
        members = {*parents, child}
        cover = next(
            (joint for axes, joint in holding.get(child, ()) if members <= axes),
            None,
        )
        if cover:
            plan.append((cover, None))
            continue
        grown = pack and pack[1] * math.prod(slots[v] for v in members - pack[0])
        if pack and grown <= GROUP_PATTERNS:
            pack[:] = pack[0] | members, grown, pack[2] + 1
        else:
            # a family that fits a pack is far below the limit
            size = math.prod(slots[v] for v in members)
            _refuse_wide(dataset, child, size)
            pack = [members, size, 1]
        plan.append((None, pack))

    def given():
        counted = None, None  # the pack counted last and its joint
        for cover, pack in plan:
            if cover or pack[2] == 1:
                yield cover
                continue
            if counted[0] is not pack:
                axes = tuple(sorted(pack[0]))
                counted = pack, (_cases_table(dataset, axes), axes)
            yield counted[1]

    return given()


def tally(dataset: Dataset, ctx: ParentContext, joint=None) -> CountTable:
    """Count observed cases and possible completions for one family, from
    the family's marginal of ``joint``, a ``(table, axes)`` pair covering
    the family (a pack's, from ``joints``), or of the
    family's own table counted case by case when ``joint`` is ``None``."""
    q, c, k = ctx.n_configs, ctx.child_cardinality, len(ctx.parents)
    members = (*ctx.parents, ctx.child)
    # No name keeps a fresh joint alive, and einsum hands a family's own
    # table back as a view, so the fold below frees it as it goes, which
    # halves the time of a 4**9-slot family's tally.  A joint has at most 16
    # axes (each of at least 3 slots, at most 2**26 in all), well inside
    # einsum's 52 labels.
    table, axes = joint or (_cases_table(dataset, members), members)
    table = np.einsum(table, list(range(len(axes))), [axes.index(m) for m in members])
    # Cases observed on every parent, by configuration and child slot.
    seen = table[(slice(1, None),) * k].reshape(q, c + 1)
    # Add each parent axis's missing slot into every state of that axis, one
    # axis at a time: row j then counts every case consistent with j.
    for axis in range(k):
        head = (slice(None),) * axis
        table = table[head + (slice(1, None),)] + table[head + (slice(0, 1),)]
    consistent = table.reshape(q, c + 1)
    obs = seen[:, 1:]
    parent_obs = seen.sum(axis=1)
    return CountTable(
        context=ctx,
        n_total=dataset.n_cases,
        incomplete_cases=dataset.n_cases - int(obs.sum()),
        parent_incomplete_cases=dataset.n_cases - int(parent_obs.sum()),
        _obs=obs,
        _comp=consistent[:, 1:] + consistent[:, :1] - obs,
        _parent_obs=parent_obs,
        _parent_comp=consistent.sum(axis=1) - parent_obs,
    )
