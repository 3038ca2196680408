"""``python -m hardy_means`` and the ``hardy-means`` console script.

:func:`run` ends the process as soon as the command returns.  The package
starts no threads and registers no ``atexit`` handler, and ``--output`` is
closed by the time :func:`~hardy_means.cli.main` returns, so the
interpreter's own teardown (module clean-up and a last garbage collection
over every object numpy and the kernels made) does no work the command
needs: it cost 15 ms on a command without numpy and 30-45 ms on one with
it, on a 2-vCPU VM.
"""

import atexit
import os
import sys

from .cli import main


def run() -> None:
    """Run the command line and end the process without interpreter teardown.

    Any exception but ``SystemExit`` propagates as from a plain script:
    a traceback and exit 1.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    # the status CPython gives SystemExit(code)
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # an exit 2 has printed its one error line, a failed stdout write's included
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
