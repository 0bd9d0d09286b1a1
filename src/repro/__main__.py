"""``python -m repro`` entry point.

A reader that closes the pipe early (``repro table1 | head -1``) ends
the command quietly with exit code 1, the idiom of the note on SIGPIPE
in the :mod:`signal` docs.  SIGPIPE keeps Python's handler, because
``repro serve`` writes to sockets.
"""

from __future__ import annotations

import os
import sys

from repro.cli import main

try:
    code = main()
    sys.stdout.flush()  # a closed pipe fails here, inside the try
except BrokenPipeError:
    # Python flushes stdout again at exit; point it at devnull so that
    # flush cannot fail too.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    sys.exit(1)
sys.exit(code)
