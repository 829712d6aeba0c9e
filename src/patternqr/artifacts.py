"""How an artifact file is written, opened and decoded.

Every write goes through a temp file and a rename. Every read maps a fault of the
file itself (unreadable, not UTF-8, no JSON object, no archive of its format) to
one ConfigError or DataError that names it. What a line or a member means is left
to the module that owns the artifact.
"""

from __future__ import annotations

import errno
import json
import os
import zipfile
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

# The OS errors that say an output path itself cannot be written. Every writer
# maps these, and only these, to a ConfigError; any other (a full disk) passes.
UNWRITABLE = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file and rename, so an aborted write leaves no partial file.
    A path that cannot be written (its directory is missing, or it is a directory)
    is a ConfigError naming it; a directory is found before anything is written."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, UNWRITABLE):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, atomically."""
    atomic_write(Path(path), lambda tmp: tmp.write_text(text, encoding="utf-8"))


def atomic_savez(path: Path, **arrays: np.ndarray) -> None:
    """`np.savez` the arrays to `path` through `atomic_write`."""
    def write(tmp: Path) -> None:
        # Through a handle: given a path, numpy appends ".npz" to any other suffix.
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)

    atomic_write(path, write)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-empty line of a UTF-8 file, read one line
    at a time. Only "\n" ends a line (U+0085, U+2028 and the like are text); one
    "\r" at the end of every line, the last included, is dropped, and any other
    "\r" is text. An unreadable or non-UTF-8 file is a DataError."""
    try:
        with open(path, encoding="utf-8", newline="\n") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.removesuffix("\n").removesuffix("\r")
                if line:
                    yield line_no, line
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text ({exc.reason}, byte {byte:#04x})") from exc


def read_json(path: str | Path, what: str, error: type[Exception]) -> dict:
    """The JSON object a UTF-8 file holds. A file that cannot be read, is not UTF-8,
    is not JSON or holds no object is an `error` naming `what` and the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise error(f"cannot load {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} {path} must hold a JSON object, got {type(payload).__name__}")
    return payload


def read_npz(
    path: str | Path, what: str, fmt: str, command: str, members: Sequence[str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON `meta` (UTF-8 bytes or a string array) of the `.npz` file at `path`,
    and its `members`; nothing else is read, and nothing is unpickled. A file that
    is no zip, or whose meta is no object of format `fmt`, is refused before any
    member is read. Any other fault is a DataError naming `what` the file holds."""
    not_kind = DataError(f"{path} is not a {fmt} file: run `patternqr {command}` again")
    try:
        with open(path, "rb") as handle:
            # np.load would try to unpickle a file that is not a zip (.npz) file.
            if handle.read(4) != b"PK\x03\x04":
                raise not_kind
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as bundle:
                missing = [name for name in ("meta", *members) if name not in bundle.files]
                if missing[:1] != ["meta"]:
                    raw = bundle["meta"]
                    meta = json.loads(str(raw) if raw.dtype.kind == "U" else raw.tobytes().decode())
                    if not isinstance(meta, dict) or meta.get("format") != fmt:
                        raise not_kind
                if missing:
                    raise DataError(f"malformed {what} file {path}: {missing[0]} is not a file in "
                                    "the archive")
                return meta, {name: bundle[name] for name in members}
    except OSError as exc:
        raise DataError(f"cannot load {what} from {path}: {exc}") from exc
    except (ValueError, RecursionError, zipfile.BadZipFile) as exc:  # JSON faults as in read_json
        raise DataError(f"malformed {what} file {path}: {exc}") from exc
