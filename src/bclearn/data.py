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

``load_csv`` turns each body cell into an integer key that sorts as its
label does, by one of two paths, and labels both paths' keys in one step.
The common file -- no quoting, no blank line, every row as wide as the
header, body cells of at most 8 bytes -- is tokenised by numpy on its
bytes, never making a Python object per cell, into keys of 1, 2, 4 or 8
bytes: the narrowest that holds the file's longest cell.  Every other file
is parsed by ``csv.reader``, which also words every error about the layout,
into 2-byte keys unless it has more than 2**16 distinct labels.  A column
of keys of at most 2 bytes is labelled by counting them into a table with
one slot per possible key; wider keys are sorted.

``save_csv`` writes the bytes ``csv.writer`` would, row by row, in its excel
dialect (minimal quoting, CRLF line ends, UTF-8 without a byte-order mark),
but asks ``csv.writer`` only for each label's quoted form, once.  numpy
then builds each block of rows from the codes: one gather of every cell's
bytes, padded to a common width, and, when the widths differ, one pass that
drops the padding.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

MISSING = -1
# States are indexed by int16 codes, so a variable has at most 2**15 of them.
MAX_STATES = np.iinfo(np.int16).max + 1


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
        if len(self.states) > MAX_STATES:
            raise DataError(
                f"variable {self.name!r} has {len(self.states)} states; "
                f"int16 state codes index at most {MAX_STATES}"
            )
        if len(set(self.states)) != len(self.states):
            raise DataError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Dataset:
    """Immutable n-by-I table of state indices, MISSING marking holes.

    ``codes`` is a read-only int16 copy in column-major (Fortran) order; an
    entry that the cast to int16 would change is refused, not wrapped or
    truncated.
    Nothing is cached on a dataset: counts drawn from it are kept by their
    user, such as the pack joints ``score.FamilyScorer`` keeps between
    search levels.
    """

    variables: tuple[Variable, ...]
    codes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names")
        raw = np.asarray(self.codes)
        with np.errstate(invalid="ignore"):  # NaN casts to any code: refused below
            codes = np.array(raw, dtype=np.int16, order="F")
        if raw.dtype != np.int16 and (codes != raw).any():
            entry = raw[codes != raw][0].item()
            raise DataError(f"case array entry {entry!r} is not an int16 state code")
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

    The file is read once, as bytes, which both paths parse after one
    leading UTF-8 byte-order mark, if there is one.  If they are valid
    UTF-8 and have no quote character, NUL byte, carriage return outside a
    CRLF line end or blank line, the header names are unique, every row is
    as wide as the header and every body cell is at most 8 bytes long,
    numpy tokenises them.  Any other file is parsed by
    ``csv.reader`` (RFC 4180 quoting), which also words every error about
    the file's layout.  Both paths hand an (n, m) array of unsigned integer
    keys that sort within a column as the labels do, and a key-to-label
    map, to the one step below, which fixes the states and codes and words
    every error about states, so both paths give the same ``Dataset`` or
    the same error.  That step labels a column of 1- or 2-byte keys with
    one ``np.bincount``, whose nonzero slots are the distinct keys, and one
    gather: ``np.take`` of an int16 table of codes indexed by key, straight
    into the column's codes.  A column of wider keys is labelled through
    ``np.unique``'s inverse.  The width follows from the file alone: its
    longest cell, or its count of distinct labels.
    """
    try:
        # a line end for a file without a final one, then 7 zero bytes that
        # give the last cell a whole 8-byte word
        raw, size = _read_padded(path, 8)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # a UTF-8 byte-order mark is no part of the first name
    bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    del raw[:bom]
    size -= bom
    header, keys, label_of = (
        _split_bytes(raw, size) or _split_rows(memoryview(raw)[:size], path, bom)
    )
    # the labelling below reads only the keys: freeing the file's bytes
    # first keeps them out of its peak memory
    del raw
    extra = sorted(set(schema or ()) - set(header))
    if extra:
        raise DataError(f"{path}: schema names variables not in the header: {extra}")

    unknown = MISSING - 1
    variables = []
    codes = np.empty(keys.shape, dtype=np.int16, order="F")
    first_bad = None  # (row, column, label) of the first out-of-schema cell
    for i, name in enumerate(header):
        column = keys[:, i]
        narrow = column.itemsize <= 2
        if narrow:
            # the nonzero slots of a count table with one slot per possible
            # key are the distinct keys
            seen = np.bincount(column)
            distinct = np.flatnonzero(seen)
        else:
            distinct, index = np.unique(column, return_inverse=True)
        labels = [label_of(key) for key in distinct.tolist()]
        if schema is not None and name in schema:
            states = [str(s) for s in schema[name]]
        else:
            states = [label for label in labels if label != missing_token]
            if not states and len(keys):
                raise DataError(
                    f"{path}: column {name!r} has uninferable cardinality "
                    "(all values missing and no schema supplied)"
                )
            states = states or ["1", "2"]
        variable = Variable(name, tuple(states))
        variables.append(variable)
        state_index = {state: s for s, state in enumerate(variable.states)}
        lookup = np.array(
            [
                MISSING if label == missing_token else state_index.get(label, unknown)
                for label in labels
            ],
            dtype=np.int16,
        )
        if narrow:
            # the keys themselves index a table of one code per possible key
            by_key = np.zeros(len(seen), dtype=np.int16)
            by_key[distinct] = lookup
            lookup, index = by_key, column
        # every index is in range: "wrap" skips the bounds check's buffer
        np.take(lookup, index, out=codes[:, i], mode="wrap")
        if (lookup == unknown).any():
            r = int(np.argmax(codes[:, i] == unknown))
            if first_bad is None or r < first_bad[0]:
                first_bad = (r, i, label_of(column[r].item()))
    if first_bad is not None:
        _, i, label = first_bad
        raise DataError(f"{label!r} is not a state of {header[i]!r}")
    # the Dataset copies the codes: dropping the keys and the last column's
    # index first keeps them out of the load's peak memory
    keys = column = index = None
    return Dataset(tuple(variables), codes)


_BLOCK_ROWS = 4096
# _KEY_BYTES[k]: the key width, in bytes, that holds a k-byte cell
_KEY_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _read_padded(path, spare: int):
    """The file's bytes in a bytearray followed by at least ``spare`` zero
    bytes, and their count.  The file is read into place, never copied,
    unless its size is not known in advance (a pipe)."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size + spare)
        size = fh.readinto(memoryview(raw)[: len(raw) - spare])
        rest = fh.read()
    if rest:
        raw = raw[:size] + rest + bytes(spare)
        size += len(rest)
    return raw, size


def _split_bytes(raw: bytearray, size: int):
    """Tokenise the ``size`` bytes of an unquoted file, followed in ``raw``
    by 8 spare zero bytes, with numpy, or return None to defer to csv.

    Each body cell becomes a big-endian word of w bytes holding its UTF-8
    bytes left-aligned and zero-padded, so keys sort as the labels do and
    the empty cell is 0.  w is the narrowest of 1, 2, 4 and 8 that holds
    the longest cell seen so far: the keys start as uint8, and a block with
    a longer cell widens the keys already made, once, shifting each left
    by the added bytes, so at most three times per file.  A CRLF line end
    ends its row's last cell at the CR.  Rows are tokenised in blocks, so
    no per-cell temporary spans the file.  Returns ``(header, keys,
    label_of)``, ``label_of`` decoding one key of the final width.  Only
    the spare bytes are written to, so the file's own bytes stay as read.
    """
    if not size or b'"' in raw or raw.find(b"\0", 0, size) >= 0:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    if b"\r" in raw:
        # the byte after a final carriage return is a spare zero
        if (buf[np.flatnonzero(buf[:size] == ord("\r")) + 1] != ord("\n")).any():
            return None  # a carriage return outside CRLF
    if raw[size - 1] != ord("\n"):
        raw[size] = ord("\n")
        size += 1
    buf = buf[:size]
    line_ends = np.flatnonzero(buf == ord("\n"))
    if line_ends[0] == 0:
        return None  # a blank header line
    # whether each line ends in CRLF, and where it starts
    crlf = buf[line_ends - 1] == ord("\r")
    line_starts = np.concatenate(([0], line_ends[:-1] + 1))
    if (line_ends - crlf == line_starts).any():
        return None  # a blank line
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    header_end = int(line_ends[0] - crlf[0])
    if header_end > csv.field_size_limit():  # csv.reader may refuse a name
        return None
    header = raw[:header_end].decode("utf-8").split(",")
    if len(set(header)) != len(header):
        return None

    width = len(header)
    n_cases = len(line_ends) - 1
    key_bytes = 1
    keys = np.empty((n_cases, width), dtype=np.uint8, order="F")
    words, masks = _key_words(raw, size, key_bytes)
    for r0 in range(0, n_cases, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n_cases)
        start, stop = line_ends[r0] + 1, line_ends[r1] + 1
        block = buf[start:stop]
        seps = np.flatnonzero((block == ord(",")) | (block == ord("\n"))) + start
        if len(seps) != (r1 - r0) * width or not np.array_equal(
            seps[width - 1 :: width], line_ends[r0 + 1 : r1 + 1]
        ):
            return None
        starts = np.concatenate(([start], seps[:-1] + 1))
        lengths = seps - starts
        # a row's last cell ends before its CRLF's carriage return
        lengths[width - 1 :: width] -= crlf[r0 + 1 : r1 + 1]
        longest = int(lengths.max())
        if longest > 8:
            return None
        if longest > key_bytes:
            # widen the keys made so far: their bytes move left by the
            # added ones, so each still sorts as its label does
            shift = 8 * (_KEY_BYTES[longest] - key_bytes)
            key_bytes = _KEY_BYTES[longest]
            wider = np.empty(keys.shape, dtype=f"u{key_bytes}", order="F")
            wider[:r0] = keys[:r0]
            wider[:r0] <<= shift
            keys = wider
            words, masks = _key_words(raw, size, key_bytes)
        keys[r0:r1] = (words[starts] & masks[lengths]).reshape(r1 - r0, width)
    return header, keys, lambda key: (
        key.to_bytes(key_bytes, "big").rstrip(b"\0").decode()
    )


def _key_words(raw: bytearray, size: int, key_bytes: int):
    """A view of ``raw`` as the big-endian ``key_bytes``-byte word starting
    at each of its first ``size`` bytes, and the masks that keep the first
    0, 1, ..., ``key_bytes`` bytes of such a word."""
    words = np.ndarray((size,), dtype=f">u{key_bytes}", buffer=raw, strides=(1,))
    bits = 8 * key_bytes
    masks = np.array(
        [(1 << bits) - (1 << (bits - 8 * k)) for k in range(key_bytes + 1)],
        dtype=f"u{key_bytes}",
    )
    return words, masks


def _split_rows(raw, path, skipped: int):
    """Parse ``raw``, the file's bytes after its first ``skipped``, with
    ``csv.reader``: the path for any file ``_split_bytes`` declines.  A
    cell's key is the rank of its label among the file's distinct labels,
    uint16 unless there are more than 2**16 of them; ``path`` only names the
    file in errors, which count bytes from the file's first."""
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: byte {skipped + exc.start} is not valid UTF-8 ({exc.reason})"
        ) from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (no header)")
    header = rows[0]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header names")
    body = rows[1:]
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
    labels = sorted({cell for row in body for cell in row})
    rank = {label: r for r, label in enumerate(labels)}
    keys = np.fromiter(
        (rank[cell] for row in body for cell in row),
        dtype=np.uint16 if len(labels) <= 1 << 16 else np.intp,
        count=len(body) * len(header),
    ).reshape(len(body), len(header))
    return header, keys, labels.__getitem__


def save_csv(dataset: Dataset, path, missing_token: str = "?") -> None:
    """Write a dataset back to CSV using the variables' state labels.

    The bytes are those of ``csv.writer`` writing the header and then each
    row: the excel dialect (minimal RFC 4180 quoting, CRLF line ends),
    UTF-8 without a byte-order mark.  ``csv.writer`` quotes each state label
    and ``missing_token`` once, in a row of one field if the dataset has one
    variable (so an empty label is written ``""``) and among others if not;
    numpy then builds each block of rows from those cells.  A
    ``missing_token`` equal to one of a variable's state labels is refused
    before the file is opened: it would read back as missing."""
    for v in dataset.variables:
        if missing_token in v.states:
            raise DataError(
                f"missing token {missing_token!r} is a state of {v.name!r}"
            )
    width = dataset.n_variables
    # a cell is its label as csv.writer writes it, then the comma after it
    # or, in the last column, the line end's CR.  csv.writer quotes a label
    # in a row of its own (where an empty one is "") if the dataset has one
    # variable, else ahead of an empty field; the row's ",\r\n" or "\r\n"
    # is cut off.  Variable i's cells are items starts[i] - 1, starts[i], ...
    # of the table: the token, then its states, so MISSING (-1) picks the
    # token.
    alone = [] if width == 1 else [""]
    cells, starts = [], []
    for i, v in enumerate(dataset.variables):
        starts.append(len(cells) + 1)
        sep = b"\r" if i == width - 1 else b","
        cells += [
            _csv_line([label] + alone)[: -2 - len(alone)] + sep
            for label in (missing_token,) + v.states
        ]
    lengths = {len(cell) for cell in cells} or {1}
    slot = max(lengths)
    padded = len(lengths) > 1
    if padded:  # numpy gathers items of 1, 2, 4, 8, ... bytes fastest
        slot = 1 << (slot - 1).bit_length()
    # each cell, and a mask of its bytes, as one item of ``slot`` bytes, so
    # that a gather moves whole cells
    table, used = (
        np.frombuffer(b"".join(b.ljust(slot, b"\0") for b in items), dtype=f"V{slot}")
        for items in (cells, [b"\1" * len(cell) for cell in cells])
    )
    starts = np.array(starts, dtype=np.intp)
    line_end = np.frombuffer(b"\n" if width else b"\r\n", dtype=np.uint8)
    row_bytes = width * slot + len(line_end)
    # _BLOCK_ROWS rows a block, fewer should very long labels pad a block
    # past _BLOCK_ROWS * 256 bytes
    step = max(1, min(_BLOCK_ROWS, (_BLOCK_ROWS << 8) // row_bytes))
    with open(path, "wb") as fh:
        fh.write(_csv_line([v.name for v in dataset.variables]))
        for r0 in range(0, dataset.n_cases, step):
            index = dataset.codes[r0 : r0 + step] + starts
            block = np.empty((len(index), row_bytes), dtype=np.uint8)
            block[:, width * slot :] = line_end
            # every index is in range: "wrap" skips the bounds check's buffer
            np.take(table, index, out=_slots(block, width, slot), mode="wrap")
            if padded:
                keep = np.ones(block.shape, dtype=bool)
                np.take(used, index, out=_slots(keep, width, slot), mode="wrap")
                block = np.compress(keep.reshape(-1), block.reshape(-1))
            fh.write(block)


def _slots(block: np.ndarray, width: int, slot: int) -> np.ndarray:
    """A view of each row's first ``width`` runs of ``slot`` bytes as items."""
    return block[:, : width * slot].view(f"V{slot}")


def _csv_line(fields) -> bytes:
    """One row as ``csv.writer`` writes it, line end included, in UTF-8."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue().encode("utf-8")


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
