import codecs
import csv
import json
import os
import sys
import threading

import numpy as np
import pytest

from bclearn import (
    MISSING,
    DataError,
    Dataset,
    Variable,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    summarize_missingness,
)
from bclearn import data
from helpers import punch_holes, random_complete
from oracle_refs import csv_writer_bytes


class TestLoadCsv:
    def test_worked_example(self, worked_csv):
        d = load_csv(worked_csv)
        assert d.n_cases == 5
        assert d.n_variables == 3
        assert [v.name for v in d.variables] == ["X1", "X2", "X3"]
        assert all(v.states == ("1", "2") for v in d.variables)
        assert int((d.codes == MISSING).sum()) == 6
        # first case fully observed: (1, 2, 2) -> indices (0, 1, 1)
        assert d.codes[0].tolist() == [0, 1, 1]

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n", encoding="utf-8")
        d = load_csv(path)
        assert d.n_cases == 0
        assert d.n_variables == 2
        assert d.codes.shape == (0, 2)
        assert all(v.states == ("1", "2") for v in d.variables)
        d = load_csv(path, schema={"B": ["x", "y", "z"]})
        assert d.variables[1].states == ("x", "y", "z")

    def test_quoted_cells_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(
            b'A,"B, b"\r\n"x,1","say ""hi"""\r\ny,?\r\n"x,1",plain\r\n'
        )
        d = load_csv(path)
        assert [v.name for v in d.variables] == ["A", "B, b"]
        assert d.variables[0].states == ("x,1", "y")
        assert d.variables[1].states == ("plain", 'say "hi"')
        assert d.codes.tolist() == [[0, 1], [1, MISSING], [0, 0]]

    def test_schema_state_equal_to_missing_token_reads_as_missing(self, tmp_path):
        path = tmp_path / "token.csv"
        path.write_text("X1,X2\n?,a\nx,?\nx,b\n", encoding="utf-8")
        d = load_csv(path, schema={"X1": ["?", "x"]})
        assert d.variables[0].states == ("?", "x")
        assert d.codes.tolist() == [[MISSING, 0], [1, MISSING], [1, 1]]

    def test_all_missing_column_rejected_without_schema(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("X1,X2\n1,?\n2,?\n", encoding="utf-8")
        with pytest.raises(DataError, match="uninferable cardinality"):
            load_csv(path)

    def test_all_missing_column_accepted_with_schema(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("X1,X2\n1,?\n2,?\n", encoding="utf-8")
        d = load_csv(path, schema={"X2": ["a", "b", "c"]})
        assert d.variables[1].states == ("a", "b", "c")
        assert (d.codes[:, 1] == MISSING).all()

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("X1,X1\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate header"):
            load_csv(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("X1,X2\n1\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_ragged_row_reports_its_one_based_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("X1,X2\n1,2\n2,1\n1,2,1\n2,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 4 has 3 cells, expected 2"):
            load_csv(path)

    def test_states_sorted_lexicographically(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("X1\nb\na\nc\n", encoding="utf-8")
        d = load_csv(path)
        assert d.variables[0].states == ("a", "b", "c")
        assert d.codes[:, 0].tolist() == [1, 0, 2]

    def test_missing_token_configurable(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("X1,X2\n1,NA\n2,1\n1,2\n", encoding="utf-8")
        d = load_csv(path, missing_token="NA")
        assert d.codes[0, 1] == MISSING
        assert (d.codes != MISSING).sum() == 5

    def test_constant_column_needs_schema(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("X1,X2\n1,a\n2,a\n", encoding="utf-8")
        with pytest.raises(DataError, match=">= 2 states"):
            load_csv(path)
        d = load_csv(path, schema={"X2": ["a", "b"]})
        assert d.variables[1].states == ("a", "b")

    def test_schema_fixes_state_order(self, tmp_path):
        path = tmp_path / "ord.csv"
        path.write_text("X1\nlow\nhigh\n", encoding="utf-8")
        d = load_csv(path, schema={"X1": ["low", "high"]})
        assert d.variables[0].states == ("low", "high")
        assert d.codes[:, 0].tolist() == [0, 1]

    def test_value_outside_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X1\nzz\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(path, schema={"X1": ["a", "b"]})

    def test_first_value_outside_schema_in_row_major_order_is_named(self, tmp_path):
        # column by column, 'late' in X1 would come before 'early' in X2
        path = tmp_path / "bad.csv"
        path.write_text("X1,X2\na,early\nlate,b\n", encoding="utf-8")
        schema = {"X1": ["a", "b"], "X2": ["a", "b"]}
        with pytest.raises(DataError, match="^'early' is not a state of 'X2'$"):
            load_csv(path, schema=schema)

    def test_schema_naming_a_variable_not_in_the_header_rejected(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("A,B\nx,y\nz,w\n", encoding="utf-8")
        with pytest.raises(
            DataError, match=r"schema names variables not in the header: \['C'\]$"
        ):
            load_csv(path, schema={"A": ["x", "z"], "C": ["y", "w"]})

    def test_codes_are_column_major_and_read_only(self, worked_csv):
        d = load_csv(worked_csv)
        assert d.codes.dtype == np.int16
        assert d.codes.flags.f_contiguous
        assert not d.codes.flags.c_contiguous
        assert not d.codes.flags.writeable


def load_or_error(path, **kwargs):
    """The Dataset load_csv gives, or its error with the file name masked."""
    try:
        return load_csv(path, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc).replace(str(path), "<file>")


def refuse_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called")


class TestBytePathMatchesCsvReader:
    """Unquoted files are split by numpy, quoted ones by csv.reader.

    Quoting the first header cell ('"X0"' parses to 'X0') sends the same
    content down the csv.reader path, so the two results must be equal.
    """

    # prefixes of each other, digits, multi-byte UTF-8, 0 and 8 bytes long
    LABELS = ["", "a", "ab", "b", "9", "10", "é", "状態", "é状態", "abcdefgh",
              "?"]

    def random_file(self, rng):
        n_rows = int(rng.integers(0, 40))
        width = int(rng.integers(1, 21))
        header = [f"X{i}" for i in range(width)]
        columns = []
        for _ in range(width):
            pool = rng.choice(self.LABELS, size=int(rng.integers(2, 6)), replace=False)
            columns.append(rng.choice(pool, size=n_rows).tolist())
        rows = [header] + [list(row) for row in zip(*columns)]
        newline = "\r\n" if rng.random() < 0.5 else "\n"
        text = newline.join(",".join(row) for row in rows)
        if rng.random() < 0.7:
            text += newline
        schema = None
        if rng.random() < 0.5:
            # the observed labels in a shuffled order, sometimes one short
            schema = {}
            for name, column in zip(header, columns):
                states = sorted(set(column) - {"?"} | {"x1", "x2"})
                rng.shuffle(states)
                schema[name] = states
            if rng.random() < 0.2:
                schema[str(rng.choice(header))].pop(0)
        return header, columns, text, schema

    def test_random_files_load_the_same_by_both_paths(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(707)
        loaded = 0
        for trial in range(300):
            header, columns, text, schema = self.random_file(rng)
            plain = tmp_path / f"plain{trial}.csv"
            quoted = tmp_path / f"quoted{trial}.csv"
            plain.write_bytes(text.encode("utf-8"))
            quoted.write_bytes(('"X0"' + text[2:]).encode("utf-8"))
            kwargs = {"schema": schema}
            if rng.random() < 0.3:
                kwargs["missing_token"] = "a"
            expected = load_or_error(quoted, **kwargs)
            # a single-column file with an empty cell has a blank line
            if len(header) > 1 or "" not in columns[0]:
                monkeypatch.setattr(csv, "reader", refuse_csv_reader)
            got = load_or_error(plain, **kwargs)
            monkeypatch.undo()
            assert got == expected, (trial, text)
            loaded += isinstance(got, Dataset)
        assert loaded > 100

    def test_mixed_lf_and_crlf_line_ends(self, tmp_path, monkeypatch):
        """A file whose rows end in LF and CRLF alike, an 8-byte and an
        empty cell before a CRLF among them, and no final line end."""
        text = b"A,B\r\nx,abcdefgh\ny,\r\n?,x\r\nx,?\nabcdefgh,y"
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_bytes(text)
        quoted.write_bytes(b'"A"' + text[1:])
        expected = load_csv(quoted)
        monkeypatch.setattr(csv, "reader", refuse_csv_reader)
        got = load_csv(plain)
        assert got == expected
        assert got.variables[1].states == ("", "abcdefgh", "x", "y")
        assert got.codes.tolist() == [[1, 1], [2, 0], [-1, 2], [1, -1], [0, 3]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    # a quoted cell sends the file to csv.reader
    @pytest.mark.parametrize(
        "row", [b"x,y\ny,x\r\n", b'"x,y",1\nz,2\r\n'], ids=["numpy", "csv_reader"]
    )
    def test_a_named_pipe_loads_as_its_bytes_do(self, tmp_path, monkeypatch, row):
        """A pipe's size is not known before it is read: all of it is read,
        once, whichever path parses it."""
        text = b"A,B\r\n" + row * 25_000
        plain, pipe = tmp_path / "plain.csv", tmp_path / "pipe.csv"
        plain.write_bytes(text)
        os.mkfifo(pipe)
        if b'"' not in row:
            monkeypatch.setattr(csv, "reader", refuse_csv_reader)
        # a loader that opened the pipe a second time would wait for ever
        loaded = []
        loader = threading.Thread(
            target=lambda: loaded.append(load_csv(pipe)), daemon=True
        )
        loader.start()
        pipe.write_bytes(text)
        loader.join(timeout=10)
        assert not loader.is_alive() and len(loaded) == 1
        assert loaded[0] == load_csv(plain)
        assert loaded[0].n_cases == 50_000

    # a 9-byte label in the second column sends the file to csv.reader
    @pytest.mark.parametrize(
        "last", ["b,2", "b,123456789"], ids=["numpy", "csv_reader"]
    )
    def test_prefix_and_digit_labels_sort_as_strings(self, tmp_path, last):
        path = tmp_path / "order.csv"
        body = ["ab,1", "10,1", "a,1", "9,1", "状態,1", "é,1", ",1", last]
        path.write_bytes("\r\n".join(["X,Y"] + body).encode("utf-8"))
        d = load_csv(path)
        assert d.variables[0].states == ("", "10", "9", "a", "ab", "b", "é", "状態")
        assert d.codes[:, 0].tolist() == [4, 1, 3, 2, 7, 6, 0, 5]

    @pytest.mark.parametrize(
        "header", [b"A,B", b'"A",B'], ids=["numpy", "csv_reader"]
    )
    def test_a_byte_order_mark_is_no_part_of_the_first_name(
        self, tmp_path, monkeypatch, header
    ):
        text = header + b"\r\nx,1\ny,2\n?,?\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        expected = load_csv(plain)
        if b'"' not in header:
            monkeypatch.setattr(csv, "reader", refuse_csv_reader)
        got = load_csv(marked)
        assert got == expected
        assert [v.name for v in got.variables] == ["A", "B"]
        # only one mark is skipped
        marked.write_bytes(codecs.BOM_UTF8 * 2 + text)
        assert load_csv(marked).variables[0].name.startswith("\ufeff")


def spy_keys(monkeypatch, split):
    """Record the dtype of the keys ``data.<split>`` returns, as ``load_csv``
    calls it."""
    dtypes = []
    original = getattr(data, split)

    def spy(*args):
        result = original(*args)
        if result is not None:
            dtypes.append(result[1].dtype)
        return result

    monkeypatch.setattr(data, split, spy)
    return dtypes


class TestKeysWidenAcrossBlocks:
    """The byte path starts on 1-byte keys and widens them, once per width,
    when a later block of ``_BLOCK_ROWS`` rows holds a longer cell.  Each
    file is compared with its quoted copy, which csv.reader parses."""

    ROWS = 5 * data._BLOCK_ROWS + 7

    def write(self, tmp_path, first_long):
        """Three columns of 1-byte labels and '?' whose first cell of each
        length k in ``first_long`` lies in a later block at row
        ``first_long[k]``; k-byte labels share prefixes with the short ones
        and recur after their first row.  Returns the plain and the quoted
        file."""
        rng = np.random.default_rng(2024)
        columns = rng.choice(["a", "b", "?", "", "9"], size=(self.ROWS, 3))
        columns = columns.astype(object)
        for k, row in first_long.items():
            pool = ["a" * k, "b" + "a" * (k - 1), "9" * k]
            later = rng.random(self.ROWS) < 0.05
            later[: row + 1] = False
            later[row] = True
            column = int(rng.integers(0, 3))
            columns[later, column] = rng.choice(pool, size=int(later.sum()))
        text = "A,B,C\n" + "".join(",".join(row) + "\n" for row in columns)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text(text, encoding="utf-8")
        quoted.write_text('"A"' + text[1:], encoding="utf-8")
        return plain, quoted

    @pytest.mark.parametrize(
        "first_long, key_bytes",
        [
            ({2: 5000}, 2),
            ({3: 9000}, 4),
            ({5: 13000}, 8),
            ({8: 17000}, 8),
            # every widening, each in its own block: 1 -> 2 -> 4 -> 8 bytes
            ({2: 4096, 3: 8300, 5: 12400, 8: 20000}, 8),
        ],
        ids=["2-byte", "3-byte", "5-byte", "8-byte", "all"],
    )
    def test_later_longer_cells_load_as_csv_reader_loads_them(
        self, tmp_path, monkeypatch, first_long, key_bytes
    ):
        plain, quoted = self.write(tmp_path, first_long)
        expected = load_csv(quoted)
        # the first out-of-schema cell in row-major order lies past a widening
        dropped = {"b" + "a" * (k - 1) for k in first_long}
        schema = {
            v.name: [s for s in v.states if s not in dropped]
            for v in expected.variables
        }
        expected_error = load_or_error(quoted, schema=schema)
        monkeypatch.setattr(csv, "reader", refuse_csv_reader)
        dtypes = spy_keys(monkeypatch, "_split_bytes")
        got = load_csv(plain)
        assert dtypes == [np.dtype(f"u{key_bytes}")]
        assert got == expected
        assert got.n_cases == self.ROWS
        assert load_or_error(plain, schema=schema) == expected_error
        assert expected_error[0] == "DataError"

    def test_widened_file_with_a_later_nine_byte_cell_goes_to_csv_reader(
        self, tmp_path, monkeypatch
    ):
        plain, quoted = self.write(tmp_path, {2: 5000, 9: 14000})
        expected = load_csv(quoted)
        dtypes = spy_keys(monkeypatch, "_split_rows")
        got = load_csv(plain)
        assert dtypes == [np.dtype(np.uint16)]
        assert got == expected
        states = {s for v in got.variables for s in v.states}
        assert {"aa", "9" * 9} <= states


class TestOutOfSchemaCellOnNarrowKeys:
    """The byte path labels 1- and 2-byte keys through a table indexed by
    key, and still names the first out-of-schema cell in row-major order,
    as csv.reader's path, on the quoted copy, names it."""

    ROWS = 3 * data._BLOCK_ROWS + 5

    @pytest.mark.parametrize(
        "labels, key_bytes", [(["a", "b", "?"], 1), (["aa", "b", "?"], 2)],
        ids=["1-byte", "2-byte"],
    )
    @pytest.mark.parametrize(
        "row", [1, 3 * data._BLOCK_ROWS + 1], ids=["first_block", "late_block"]
    )
    def test_the_first_bad_cell_is_named(
        self, tmp_path, monkeypatch, labels, key_bytes, row
    ):
        rng = np.random.default_rng(row + key_bytes)
        cells = rng.choice(labels, size=(self.ROWS, 3)).astype(object)
        # column by column X0's bad cell comes first, in row-major order X1's
        cells[row, 2], cells[row, 1], cells[row + 1, 0] = "y", "x", "z"
        text = "X0,X1,X2\n" + "".join(",".join(r) + "\n" for r in cells)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text(text, encoding="utf-8")
        quoted.write_text('"X0"' + text[2:], encoding="utf-8")
        schema = {f"X{i}": [s for s in labels if s != "?"] for i in range(3)}
        expected = load_or_error(quoted, schema=schema)
        assert expected == ("DataError", "'x' is not a state of 'X1'")
        monkeypatch.setattr(csv, "reader", refuse_csv_reader)
        dtypes = spy_keys(monkeypatch, "_split_bytes")
        assert load_or_error(plain, schema=schema) == expected
        assert dtypes == [np.dtype(f"u{key_bytes}")]


class TestCsvReaderKeyWidth:
    """csv.reader's keys are label ranks: uint16, labelled by counting, up
    to 2**16 distinct labels in the file, and intp, labelled by sorting,
    above that."""

    @pytest.mark.parametrize(
        "per_column, dtype", [(20_000, np.uint16), (30_000, np.intp)]
    )
    def test_distinct_labels_beyond_two_bytes(
        self, tmp_path, monkeypatch, per_column, dtype
    ):
        rng = np.random.default_rng(per_column)
        columns = [
            rng.permutation([f"{name}{k:05d}" for k in range(per_column)])
            for name in "ABC"
        ]
        path = tmp_path / "many.csv"
        path.write_text(
            '"A",B,C\n' + "".join(",".join(row) + "\n" for row in zip(*columns)),
            encoding="utf-8",
        )
        dtypes = spy_keys(monkeypatch, "_split_rows")
        got = load_csv(path)
        assert dtypes == [np.dtype(dtype)]
        for variable, column in zip(got.variables, columns):
            assert variable.states == tuple(sorted(column))
        ranks = [np.argsort(np.argsort(column)) for column in columns]
        assert np.array_equal(got.codes, np.column_stack(ranks))


class TestFilesTheBytePathDeclines:
    """Each file below goes to csv.reader; its result is the one it always was."""

    def write(self, tmp_path, content: bytes):
        path = tmp_path / "declined.csv"
        path.write_bytes(content)
        return path

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, b"")
        with pytest.raises(DataError, match="empty file \\(no header\\)$"):
            load_csv(path)

    def test_nul_byte(self, tmp_path):
        path = self.write(tmp_path, b"A,B\n1,\x002\n2,1\n")
        if sys.version_info < (3, 11):
            with pytest.raises(DataError, match="line 2: line contains NUL"):
                load_csv(path)
        else:
            d = load_csv(path)
            assert d.variables[1].states == ("\x002", "1")
            assert d.codes.tolist() == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("content", [b"A,B\n1,2\r2,1\n", b"A,B\n1,2\n2,1\r"])
    def test_carriage_return_outside_crlf_ends_a_row(self, tmp_path, content):
        d = load_csv(self.write(tmp_path, content))
        assert d.codes.tolist() == [[0, 1], [1, 0]]

    def test_cell_longer_than_eight_bytes(self, tmp_path):
        d = load_csv(self.write(tmp_path, "A,B\n1,2\n2,ééééé\n".encode("utf-8")))
        assert d.variables[1].states == ("2", "ééééé")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"A,B\n1,2\n\n2,1\n", "row 3 has 0 cells, expected 2"),
            (b"A,B\r\n1,2\r\n2,1\r\n\r\n", "row 4 has 0 cells, expected 2"),
            (b"A\n1\n\n2\n", "row 3 has 0 cells, expected 1"),
            # a blank header line names no variable
            (b"\nA,B\n", "row 2 has 2 cells, expected 0"),
        ],
    )
    def test_blank_line(self, tmp_path, content, message):
        with pytest.raises(DataError, match=f"{message}$"):
            load_csv(self.write(tmp_path, content))

    def test_duplicate_header_before_ragged_rows(self, tmp_path):
        path = self.write(tmp_path, b"A,A\n1,2,3\n")
        with pytest.raises(DataError, match="duplicate header names$"):
            load_csv(path)

    def test_header_longer_than_the_field_size_limit(self, tmp_path):
        """csv.reader refuses a cell longer than its field size limit, so a
        header past it is csv.reader's to judge: it keeps names within the
        limit and refuses one past it."""
        limit = csv.field_size_limit()
        names = ["A" * (limit // 2 + 1), "B" * (limit // 2 + 1)]
        d = load_csv(self.write(tmp_path, f"{','.join(names)}\n1,2\n2,1\n".encode()))
        assert [v.name for v in d.variables] == names
        assert d.codes.tolist() == [[0, 1], [1, 0]]
        path = self.write(tmp_path, b"A" * (limit + 1) + b"\n1\n2\n")
        with pytest.raises(DataError, match="line 1: field larger than field limit"):
            load_csv(path)

    def test_invalid_utf8(self, tmp_path):
        path = self.write(tmp_path, b"A,B\n1,\xff\n2,1\n")
        with pytest.raises(
            DataError, match=r"byte 6 is not valid UTF-8 \(invalid start byte\)$"
        ):
            load_csv(path)

    def test_invalid_utf8_after_a_byte_order_mark_counts_the_mark(self, tmp_path):
        path = self.write(tmp_path, codecs.BOM_UTF8 + b"A,B\n1,\xff\n2,1\n")
        with pytest.raises(
            DataError, match=r"byte 9 is not valid UTF-8 \(invalid start byte\)$"
        ):
            load_csv(path)


class TestRoundTrip:
    def test_random_datasets_round_trip_with_schema(self, tmp_path):
        rng = np.random.default_rng(90)
        for trial in range(25):
            original = random_complete(rng, max_vars=4, max_card=3, max_cases=12)
            if original.codes.size:
                original = punch_holes(
                    rng, original, int(rng.integers(0, original.codes.size + 1))
                )
            csv_path = tmp_path / f"rt{trial}.csv"
            schema_path = tmp_path / f"rt{trial}.schema.json"
            save_csv(original, csv_path, missing_token="?")
            save_schema(original, schema_path)
            reloaded = load_csv(
                csv_path, missing_token="?", schema=load_schema(schema_path)
            )
            assert reloaded == original

    def test_round_trip_without_schema_when_all_states_observed(self, tmp_path):
        rng = np.random.default_rng(91)
        for trial in range(25):
            original = random_complete(rng, max_vars=3, max_card=3, max_cases=30)
            observed = {
                i: set(original.codes[:, i].tolist())
                for i in range(original.n_variables)
            }
            if not all(
                observed[i] == set(range(v.cardinality))
                for i, v in enumerate(original.variables)
            ):
                continue
            path = tmp_path / f"nr{trial}.csv"
            save_csv(original, path)
            assert load_csv(path) == original

    # labels csv.writer must quote, keep or write as '""', 2-, 3- and 4-byte
    # UTF-8, and one long enough that save_csv writes fewer rows a block
    LABELS = (",", '"', "\r", "\n", "\r\n", " lead", "trail ", "", "x,y",
              'q"uote', "line\nbreak", "plain", "é", "€", "😀", "ab€😀", "long" * 100)
    NAMES = ("A,1", 'B"', " C", "é€😀")

    def test_labels_that_need_quoting_round_trip_byte_for_byte(self, tmp_path):
        """Seeded datasets of 0, 1 and 3 variables over every label above,
        on either side of a block boundary, under four missing tokens: the
        bytes equal ``csv.writer``'s row by row and load back, with their
        schema, to the same dataset."""
        rng = np.random.default_rng(574)
        block = data._BLOCK_ROWS
        for token in ("?", '""', "NA", ","):
            labels = [label for label in self.LABELS if label != token]
            for width in (0, 1, 3):
                # every label is a state of one of the variables
                shuffled = rng.permutation(np.array(labels, dtype=object))
                parts = np.array_split(shuffled, width) if width else []
                variables = tuple(
                    Variable(name, tuple(part)) for name, part in zip(self.NAMES, parts)
                )
                cards = np.array([v.cardinality for v in variables], dtype=int)
                for n in (0, block - 1, block, block + 1):
                    original = Dataset(
                        variables, rng.integers(MISSING, cards, size=(n, width))
                    )
                    csv_path = tmp_path / "quoting.csv"
                    schema_path = tmp_path / "quoting.schema.json"
                    save_csv(original, csv_path, missing_token=token)
                    save_schema(original, schema_path)
                    assert csv_path.read_bytes() == csv_writer_bytes(original, token), (
                        token, width, n)
                    reloaded = load_csv(
                        csv_path, missing_token=token, schema=load_schema(schema_path)
                    )
                    assert reloaded == original, (token, width, n)

    def test_dataset_without_variables_keeps_its_cases(self, tmp_path):
        """csv.writer writes a case of no fields as an empty line, which
        reads back as a case."""
        original = Dataset((), np.zeros((3, 0), dtype=np.int16))
        path = tmp_path / "no-variables.csv"
        save_csv(original, path)
        assert path.read_bytes() == b"\r\n" * 4
        assert load_csv(path).n_cases == 3

    def test_missing_token_equal_to_a_state_label_is_refused(self, tmp_path):
        d = Dataset(
            (Variable("A", ("x", "y")), Variable("B", ("1", "2"))),
            np.array([[0, 1], [MISSING, 0]], dtype=np.int16),
        )
        path = tmp_path / "ambiguous.csv"
        with pytest.raises(DataError, match="^missing token '1' is a state of 'B'$"):
            save_csv(d, path, missing_token="1")
        assert not path.exists()


class TestSummarizeMissingness:
    def test_worked_example(self, worked_db):
        s = summarize_missingness(worked_db)
        assert s.total_entries == 15
        assert s.total_missing == 6
        assert s.fraction_missing == pytest.approx(0.4)
        assert s.per_variable == {"X1": 2, "X2": 3, "X3": 1}
        assert sum(s.per_variable.values()) == s.total_missing

    def test_complete_dataset(self):
        rng = np.random.default_rng(4)
        d = random_complete(rng)
        assert summarize_missingness(d).fraction_missing == 0.0

    def test_no_entries(self):
        d = Dataset((Variable("A", ("x", "y")),), np.empty((0, 1), dtype=np.int16))
        s = summarize_missingness(d)
        assert (s.total_entries, s.fraction_missing) == (0, 0.0)

    def test_fully_missing_column_with_schema(self):
        d = Dataset(
            (Variable("A", ("x", "y")),),
            np.full((4, 1), MISSING, dtype=np.int16),
        )
        s = summarize_missingness(d)
        assert s.fraction_missing == 1.0

    def test_matches_direct_scan_on_random_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_complete(rng, max_cases=20)
            if d.codes.size:
                d = punch_holes(rng, d, int(rng.integers(0, d.codes.size + 1)))
            direct = sum(
                1
                for row in d.codes
                for value in row
                if value == MISSING
            )
            assert summarize_missingness(d).total_missing == direct


class TestInvariants:
    def test_variable_needs_two_states(self):
        with pytest.raises(DataError):
            Variable("A", ("only",))

    def test_duplicate_state_labels_rejected(self):
        with pytest.raises(DataError):
            Variable("A", ("x", "x"))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(DataError):
            Dataset((Variable("A", ("x", "y")),), np.array([[2]], dtype=np.int16))

    @pytest.mark.parametrize(
        "codes", [[[-65537, 0]], [[65536, 1]], [[1.7, 0]], [[np.nan, 0]]]
    )
    def test_entry_the_int16_cast_changes_rejected(self, codes):
        """Cast to int16, -65537 wraps to MISSING, 65536 to state 0, 1.7
        truncates to state 1 and NaN becomes some code: each is refused, not
        stored."""
        variables = (Variable("A", ("x", "y")), Variable("B", ("x", "y")))
        with pytest.raises(DataError, match="is not an int16 state code"):
            Dataset(variables, np.array(codes))

    @pytest.mark.parametrize("names, codes, match", [
        (("A", "A"), np.zeros((1, 2), dtype=np.int16), "duplicate variable names"),
        (("A", "B"), np.zeros((1, 3), dtype=np.int16), r"must be n x 2, got \(1, 3\)"),
        (("A", "B"), np.zeros(2, dtype=np.int16), r"must be n x 2, got \(2,\)"),
    ])
    def test_malformed_dataset_rejected(self, names, codes, match):
        with pytest.raises(DataError, match=match):
            Dataset(tuple(Variable(name, ("x", "y")) for name in names), codes)

    def test_equality_and_hash_follow_the_contents(self, worked_db):
        copy = Dataset(worked_db.variables, worked_db.codes.copy())
        assert copy == worked_db and hash(copy) == hash(worked_db)
        assert Dataset(worked_db.variables, worked_db.codes[::-1]) != worked_db
        assert worked_db != "worked" and worked_db.__eq__(None) is NotImplemented

    def test_schema_must_be_a_json_object(self, tmp_path):
        path = tmp_path / "schema.json"
        for text in ('["x", "y"]', '{"A": "x,y"}'):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="schema must be a JSON object"):
                load_schema(path)

    def test_dataset_is_immutable(self, worked_db):
        with pytest.raises(ValueError):
            worked_db.codes[0, 0] = 1

    def test_empty_json_schema_round_trip(self, tmp_path, worked_db):
        path = tmp_path / "schema.json"
        save_schema(worked_db, path)
        assert load_schema(path) == {name: ["1", "2"] for name in ("X1", "X2", "X3")}
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["X1"] == ["1", "2"]
