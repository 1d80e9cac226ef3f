"""Text I/O on either a filesystem path or an already open text stream."""

import contextlib
import csv

from .errors import FileFormatError


def read_text(path_or_file):
    """The whole text of an open stream, or of a path opened as UTF-8 with newline="" (the
    csv module's contract), one leading byte-order mark removed.  Bytes that do not decode,
    and a stream whose read() returns bytes, raise FileFormatError."""
    try:
        if hasattr(path_or_file, "read"):
            text = path_or_file.read()
        else:
            with open(path_or_file, encoding="utf-8", newline="") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"not UTF-8 text at byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None
    if not isinstance(text, str):
        raise FileFormatError(f"expected a text stream, got {type(text).__name__} from read()")
    return text.removeprefix("\ufeff")


def text_stream(path_or_file):
    """A context manager for writing: a caller's stream, left open, or the path as UTF-8."""
    if hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, "w", encoding="utf-8", newline="")


def write_csv(path_or_file, header, rows):
    """Write a header row and rows with "\\n" line endings: a str cell as is, any other
    cell as a number with six decimals."""
    with text_stream(path_or_file) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([c if isinstance(c, str) else f"{c:.6f}" for c in row] for row in rows)
