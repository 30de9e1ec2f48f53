import pytest

from actlab.fileio import atomic_write


def test_writes_a_new_file(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path) as f:
        f.write("hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_that_dies_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path) as f:
            f.write("new contents, half")
            f.flush()  # the partial bytes reach the temporary file
            raise OSError("disk full")
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_that_dies_midway_creates_nothing(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "out.txt") as f:
            f.write("partial")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_newline_is_passed_to_open(tmp_path):
    path = tmp_path / "rows.csv"
    with atomic_write(path, newline="") as f:
        f.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
