"""Categorical datasets with explicit missing entries.

A dataset is a rectangular table of state indices over a fixed list of
variables.  Missing entries are stored as the sentinel ``MISSING`` (-1),
never as a separate mask.  The table is int16 and column-major, so each
variable's entries are one contiguous vector: counting reads whole
columns, never a strided gather.

State universes are inferred from a CSV column as the lexicographically
sorted set of distinct observed values.  An optional JSON schema sidecar
(``{variable name: [state, ...]}``) fixes the universe and its order
explicitly; this is required when a column is entirely missing and is
the only way to guarantee CSV round trips for states that never occur
observed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

MISSING = -1


class DataError(ValueError):
    """Raised when an input file or dataset constraint is violated."""


@dataclass(frozen=True)
class Variable:
    """A named categorical variable with an ordered state universe."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise DataError(
                f"variable {self.name!r} needs >= 2 states, got {len(self.states)}"
            )
        if len(set(self.states)) != len(self.states):
            raise DataError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Dataset:
    """Immutable n-by-I table of state indices, MISSING marking holes.

    ``codes`` is a read-only int16 copy in column-major (Fortran) order.
    """

    variables: tuple[Variable, ...]
    codes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names")
        codes = np.array(self.codes, dtype=np.int16, order="F")
        if codes.ndim != 2 or codes.shape[1] != len(self.variables):
            raise DataError(
                f"case array must be n x {len(self.variables)}, got {codes.shape}"
            )
        for i, v in enumerate(self.variables):
            col = codes[:, i]
            bad = (col != MISSING) & ((col < 0) | (col >= v.cardinality))
            if bad.any():
                raise DataError(f"out-of-range state index in column {v.name!r}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n_cases(self) -> int:
        return self.codes.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)

    def variable_index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise DataError(f"unknown variable {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.variables == other.variables and np.array_equal(
            self.codes, other.codes
        )

    def __hash__(self):
        return hash((self.variables, self.codes.tobytes()))


@dataclass(frozen=True)
class MissingnessSummary:
    per_variable: dict[str, int]
    total_entries: int
    total_missing: int

    @property
    def fraction_missing(self) -> float:
        if self.total_entries == 0:
            return 0.0
        return self.total_missing / self.total_entries


def load_schema(path) -> dict[str, list[str]]:
    """Read a schema sidecar: a JSON object mapping name -> ordered states."""
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    if not isinstance(schema, dict) or not all(
        isinstance(k, str) and isinstance(v, list) for k, v in schema.items()
    ):
        raise DataError("schema must be a JSON object {name: [state, ...]}")
    return schema


def load_csv(path, missing_token: str = "?", schema: dict | None = None) -> Dataset:
    """Load a comma-separated file whose first row names the variables.

    Cells equal to ``missing_token`` become MISSING.  Without a schema the
    states of each column are the sorted distinct observed values; a column
    with no observed value at all is rejected because its cardinality
    cannot be inferred.  A header-only file is a valid empty dataset:
    columns not covered by a schema default to a binary ("1", "2")
    universe, there being no cells to contradict it.

    Every cell is mapped once to its rank among all distinct labels of the
    file; each column is then translated from label ranks to state indices
    with a small lookup table.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (no header)")
    header = rows[0]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header names")
    body = rows[1:]
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")

    # Sorted labels keep each column's observed states in sorted order.
    labels = sorted(set(chain.from_iterable(body)) | {missing_token})
    index = {label: t for t, label in enumerate(labels)}
    ids = np.fromiter(
        map(index.__getitem__, chain.from_iterable(body)),
        dtype=np.int32,
        count=len(body) * len(header),
    ).reshape(len(body), len(header))
    del rows, body

    variables = []
    for i, name in enumerate(header):
        if schema is not None and name in schema:
            states = [str(s) for s in schema[name]]
        else:
            present = np.flatnonzero(np.bincount(ids[:, i], minlength=len(labels)))
            observed = [labels[t] for t in present if t != index[missing_token]]
            if not observed and len(ids):
                raise DataError(
                    f"{path}: column {name!r} has uninferable cardinality "
                    "(all values missing and no schema supplied)"
                )
            states = observed if observed else ["1", "2"]
        variables.append(Variable(name, tuple(states)))

    unknown = MISSING - 1
    codes = np.empty(ids.shape, dtype=np.int16, order="F")
    for i, v in enumerate(variables):
        lookup = np.full(len(labels), unknown, dtype=np.int16)
        for state, label in enumerate(v.states):
            if label in index:
                lookup[index[label]] = state
        lookup[index[missing_token]] = MISSING
        codes[:, i] = lookup[ids[:, i]]
    bad = np.argwhere(codes == unknown)
    if len(bad):
        r, i = bad[0]
        raise DataError(f"{labels[ids[r, i]]!r} is not a state of {header[i]!r}")
    return Dataset(tuple(variables), codes)


def save_csv(dataset: Dataset, path, missing_token: str = "?") -> None:
    """Write a dataset back to CSV using the variables' state labels."""
    # MISSING (-1) picks the token appended after each variable's states.
    columns = [
        np.array(v.states + (missing_token,), dtype=object)[dataset.codes[:, i]]
        for i, v in enumerate(dataset.variables)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([v.name for v in dataset.variables])
        writer.writerows(zip(*columns))


def save_schema(dataset: Dataset, path) -> None:
    schema = {v.name: list(v.states) for v in dataset.variables}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")


def summarize_missingness(dataset: Dataset) -> MissingnessSummary:
    missing = dataset.codes == MISSING
    per_variable = {
        v.name: int(missing[:, i].sum()) for i, v in enumerate(dataset.variables)
    }
    return MissingnessSummary(
        per_variable=per_variable,
        total_entries=int(dataset.codes.size),
        total_missing=int(missing.sum()),
    )
