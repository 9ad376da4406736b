from __future__ import annotations

import os
import stat
import threading

import pytest

from support import make_entry
from trendgram._io import open_for_write
from trendgram.ingest import write_corpus
from trendgram.ngrams import build_table, write_records


def names(directory):
    return sorted(path.name for path in directory.iterdir())


def test_write_records_failing_mid_write_keeps_the_old_file(tmp_path):
    dest = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), dest)
    old = dest.read_bytes()
    mixed = build_table({(1, "code", 2000): 3, ("1", "code", 2001): 4})  # keys that cannot sort
    with pytest.raises(TypeError):
        write_records(mixed, dest)
    assert dest.read_bytes() == old
    assert names(tmp_path) == ["records.csv"]


def test_interrupted_write_corpus_leaves_no_file(tmp_path):
    def entries():
        yield make_entry()
        raise KeyboardInterrupt

    dest = tmp_path / "corpus.csv"
    with pytest.raises(KeyboardInterrupt):
        write_corpus(entries(), dest)
    assert names(tmp_path) == []


def test_open_for_write_replaces_the_file_when_done(tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_text("old\n")
    dest.chmod(0o640)
    with open_for_write(dest) as fh:
        fh.write("new\n")
        assert dest.read_text() == "old\n"
    assert dest.read_text() == "new\n"
    assert stat.S_IMODE(dest.stat().st_mode) == 0o640
    assert names(tmp_path) == ["out.csv"]


def test_open_for_write_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with open_for_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_open_for_write_writes_a_pipe_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    with open_for_write(pipe) as fh:
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert received == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_open_for_write_error_names_the_destination(tmp_path):
    dest = tmp_path / "absent" / "out.csv"
    with pytest.raises(FileNotFoundError) as err:
        with open_for_write(dest):
            pass
    assert err.value.filename == str(dest)
