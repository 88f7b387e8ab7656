"""Helpers shared by the test modules."""

import contextlib
import signal


class CapExceeded(Exception):
    """A capped block ran past its time cap.

    Not a TimeoutError: that is an OSError, which `memplan.cli.main` reports
    as exit 1 instead of letting it reach the test.
    """


@contextlib.contextmanager
def time_cap(seconds, what):
    """Run the block under a ``seconds`` wall-clock cap (SIGALRM).

    Past the cap the block is interrupted and CapExceeded names ``what``.
    The timer and the previous handler are restored either way.
    """
    def on_alarm(signum, frame):
        raise CapExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    timed_out = False
    try:
        yield
    except CapExceeded:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if timed_out:
        # Raised afresh, without the handler's exception as context: a
        # traceback through the frame the alarm interrupted may have no line
        # number, which pytest's report cannot render.
        raise CapExceeded(f"{what} ran past {seconds:g} s") from None
