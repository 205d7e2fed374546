"""repro.util: atomic writes."""

import os

import pytest

from repro.util import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_bytes_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"\x00\x01payload")
        with open(path, "rb") as fh:
            assert fh.read() == b"\x00\x01payload"

    def test_text_roundtrip_and_overwrite(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "sécond")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "sécond"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "out.txt")
        for i in range(5):
            atomic_write_text(path, f"generation {i}")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_text_rejects_bytes(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(str(tmp_path / "x"), b"bytes")  # type: ignore

    def test_failed_write_leaves_previous_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "intact")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, "not-bytes")  # type: ignore
        with open(path) as fh:
            assert fh.read() == "intact"
        assert os.listdir(tmp_path) == ["out.txt"]
