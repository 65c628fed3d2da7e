from __future__ import annotations

import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
except BrokenPipeError:
    # The reader went away: send what is still buffered to devnull, so that
    # the flush at exit cannot fail again, and exit as for any write error.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    sys.exit(1)
sys.exit(code)
