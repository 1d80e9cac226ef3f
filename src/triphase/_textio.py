"""Text I/O on either a filesystem path or an already open text stream."""

import contextlib
import csv

from .errors import FileFormatError


@contextlib.contextmanager
def text_stream(path_or_file, mode):
    """Context manager yielding a text stream for mode "r" or "w".

    An open stream is yielded as is and left open on exit; anything else is
    treated as a path and opened as UTF-8, whatever the locale, with newline=""
    (the csv module's contract); reading skips a leading byte-order mark.  A
    byte that does not decode, raised inside the block, leaves as FileFormatError.
    """
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        opened = contextlib.nullcontext(path_or_file)
    else:
        opened = open(path_or_file, mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="")
    with opened as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"not UTF-8 text at byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def write_csv(path_or_file, header, rows):
    """Write a header row and formatted rows with "\\n" line endings."""
    with text_stream(path_or_file, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
