import sys
import threading

from hypothesis import settings

# The property tests draw the same examples on every run and are judged by
# their bounds alone, not by how long one example took on a busy machine.
settings.register_profile("stirlingsum", deadline=None, derandomize=True)
settings.load_profile("stirlingsum")


def race(work, timeout: float) -> None:
    """Run work(0) .. work(7) in 8 threads at a 1-us switch interval, so that
    they interleave as finely as the interpreter allows; join each within
    ``timeout`` seconds, restore the interval, check that no thread is left
    alive and re-raise the first exception a thread raised."""
    errors = []

    def run(i):
        try:
            work(i)
        except BaseException as exc:  # re-raised below, in the caller's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
