"""Host-speed calibration.

The sandbox this benchmark was defined on (2 cores, Python 3.11) changes
speed for seconds at a time: the same op takes up to 1.5-1.9x longer in slow
windows, CPU time tracks wall time, and a 15 s run can fall wholly inside
one window. A median of raw op times therefore follows the windows the run
happened to land in.

Every timing is therefore taken next to a fixed pure-Python loop that does
not touch the library, and reported at a fixed host speed: measured time
times ``REFERENCE_S`` over the loop's time. The loop slows down with the
host, not with the library, so a change to the library moves the result in
full while most of the host's variation cancels out. Raw times are printed
as diagnostics beside the normalised ones.
"""

import time

# The loop's time on the host above, median over a minute.
REFERENCE_S = 0.0024

# A fixed random netlist for the loop's gate-evaluation half, drawn with a
# linear congruential generator so this module imports nothing.
_INPUTS = 64
_GATES = 3000


def _netlist():
    state = 12345
    ops, in0, in1 = [], [], []
    for g in range(_GATES):
        picks = []
        for bound in (7, _INPUTS + g, _INPUTS + g):
            state = (state * 1103515245 + 12345) % 2**31
            picks.append(state % bound)
        ops.append(picks[0])
        in0.append(picks[1])
        in1.append(picks[2])
    return ops, in0, in1


_OPS, _IN0, _IN1 = _netlist()


def _loop() -> int:
    # Interpreter-bound like the library: one pass of a gate-evaluation
    # loop shaped like the pure-Python kernel, then short-lived tuples,
    # strings and a dict a few hundred kilobytes large.
    values = [k & 1 for k in range(_INPUTS)] + [0] * _GATES
    for g in range(_GATES):
        x = values[_IN0[g]]
        y = values[_IN1[g]]
        op = _OPS[g]
        if op == 0:
            values[_INPUTS + g] = x & y
        elif op == 1:
            values[_INPUTS + g] = x | y
        elif op == 2:
            values[_INPUTS + g] = x ^ y
        elif op == 3:
            values[_INPUTS + g] = x ^ 1
        elif op == 4:
            values[_INPUTS + g] = (x & y) ^ 1
        elif op == 5:
            values[_INPUTS + g] = (x | y) ^ 1
        else:
            values[_INPUTS + g] = (x ^ y) ^ 1
    pairs = [(i, str(i)) for i in range(4000)]
    table = {pair[1]: pair for pair in pairs}
    return values[-1] + sum(len(text) for text in table)


def host_time() -> float:
    """Seconds the calibration loop takes now: the best of three, so a
    single interruption does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def normalise(seconds: float, loop_seconds: float) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, at the
    reference host speed."""
    return seconds * REFERENCE_S / loop_seconds
