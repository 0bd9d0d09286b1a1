"""Export helpers: parent creation and CSV newline discipline."""

from repro.store.export import open_export, write_csv_rows


class TestOpenExport:
    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "out" / "run7" / "cells.json"
        with open_export(str(path)) as stream:
            stream.write("{}")
        assert path.read_text() == "{}"

    def test_plain_filename_needs_no_parent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open_export("cells.json") as stream:
            stream.write("x")
        assert (tmp_path / "cells.json").read_text() == "x"

    def test_stream_uses_empty_newline_translation(self, tmp_path):
        path = tmp_path / "rows.csv"
        with open_export(str(path)) as stream:
            stream.write("a\r\nb\r\n")  # csv-module style row endings
        assert path.read_bytes() == b"a\r\nb\r\n"  # no \r\r\n corruption


class TestWriteCsvRows:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "nested" / "table.csv"
        write_csv_rows(str(path), ("a", "b"),
                       [{"a": 1, "b": 2.5}, {"a": 3, "b": "x"}])
        body = path.read_bytes()
        assert body == b"a,b\r\n1,2.5\r\n3,x\r\n"
        assert b"\r\r" not in body
