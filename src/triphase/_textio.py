"""Text I/O on either a filesystem path or an already open text stream."""

import contextlib
import csv


def text_stream(path_or_file, mode):
    """Context manager yielding a text stream for mode "r" or "w".

    An open stream is yielded as is and left open on exit; anything else is
    treated as a path and opened with newline="" (the csv module's contract).
    """
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode, newline="")


def write_csv(path_or_file, header, rows):
    """Write a header row and formatted rows with "\\n" line endings."""
    with text_stream(path_or_file, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
