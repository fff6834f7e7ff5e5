"""Atomic writes, and files.py as the package's only writer."""

from __future__ import annotations

import ast
import csv
import os
from pathlib import Path

import pytest

import wsnaslab
from wsnaslab import files
from wsnaslab.files import write_atomic, write_csv

ROWS = [["arch_hash", "score", "note"], ["ab12", repr(0.1 + 0.2), 'comma, and "quote"'], ["cd34", "NA", "line\nbreak"]]


def _leftovers(directory: Path) -> list[str]:
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("step", ["replace", "fsync"])
def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch, step):
    target = tmp_path / "table.jsonl"
    target.write_bytes(b"old bytes\n")

    def boom(*args):
        raise OSError(f"{step} failed")

    monkeypatch.setattr(files.os, step, boom)
    with pytest.raises(OSError, match=f"{step} failed"):
        write_atomic(target, "new text\n")
    assert target.read_bytes() == b"old bytes\n"
    assert _leftovers(tmp_path) == []


def test_write_atomic_replaces_and_overwrites_a_stale_temp(tmp_path):
    target = tmp_path / "run.ckpt"
    stale = tmp_path / f".run.ckpt.{os.getpid()}.tmp"
    stale.write_bytes(b"left by a killed run, longer than the new payload")
    write_atomic(target, b"\x00\x01bytes")
    assert target.read_bytes() == b"\x00\x01bytes"
    write_atomic(target, "text é\n")
    assert target.read_bytes() == "text é\n".encode("utf-8")
    assert _leftovers(tmp_path) == []


def test_write_csv_matches_a_plain_csv_writer(tmp_path):
    expected = tmp_path / "plain.csv"
    with open(expected, "w", newline="") as f:
        csv.writer(f).writerows(ROWS)
    written = tmp_path / "atomic.csv"
    write_csv(written, ROWS)
    assert written.read_bytes() == expected.read_bytes()
    assert b"\r\n" in written.read_bytes()


def _write_calls(tree: ast.AST):
    """Line numbers of write_text/write_bytes calls and opens with a write mode.

    A mode the scan cannot read as a constant counts as a write.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                yield node.lineno


def test_files_py_is_the_only_writer():
    package = Path(wsnaslab.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "files.py"
        for line in _write_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []
    assert list(_write_calls(ast.parse((package / "files.py").read_text())))
