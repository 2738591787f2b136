"""Fixtures shared across test modules."""

import contextlib
import io
import time

import pytest

from subrank.cli import main


@pytest.fixture(scope="session")
def cached_cli_run():
    """Run `subrank ARGV...` once per session with SUBRANK_SEED unset.

    Returns (exit code, stdout, seconds) for the first run of each argv; the
    long `table --verify` example is checked both by the CLI tests and by the
    README test, and runs only once for both.
    """
    results = {}

    def run(*argv):
        if argv not in results:
            out = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
                mp.delenv("SUBRANK_SEED", raising=False)
                start = time.perf_counter()
                code = main(list(argv))
                elapsed = time.perf_counter() - start
            results[argv] = code, out.getvalue(), elapsed
        return results[argv]

    return run
