"""Text I/O on either a filesystem path or an already open text stream."""

import contextlib
import csv
import itertools

from .errors import FileFormatError


@contextlib.contextmanager
def text_stream(path_or_file, mode):
    """Context manager yielding, for mode "w", a text stream and, for mode "r", its lines.

    An open stream is used as is and left open on exit; anything else is
    treated as a path and opened as UTF-8, whatever the locale, with newline=""
    (the csv module's contract).  Reading skips one leading byte-order mark,
    whatever the source.  A byte that does not decode, raised inside the block,
    leaves as FileFormatError.
    """
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        opened = contextlib.nullcontext(path_or_file)
    else:
        opened = open(path_or_file, mode, encoding="utf-8", newline="")
    with opened as fh:
        try:
            yield fh if mode == "w" else _skip_bom(fh)
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"not UTF-8 text at byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _skip_bom(fh):
    """The stream's lines, one leading byte-order mark skipped."""
    lines = iter(fh)
    for first in lines:
        # == rather than str.removeprefix: a binary stream's bytes reach the reader unchanged
        return itertools.chain((first[1:] if first[:1] == "\ufeff" else first,), lines)
    return lines


def write_csv(path_or_file, header, rows):
    """Write a header row and formatted rows with "\\n" line endings."""
    with text_stream(path_or_file, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
