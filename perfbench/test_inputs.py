"""Checks of the benchmark's input generator, its reference timing and its
consistency with BENCHMARK.json.  Run with: python3 -m pytest perfbench"""

import collections
import itertools
import json
import pathlib
import random
import signal
from time import perf_counter

from inputs import is_parking, pollak_shift, random_parking, structured_parking
from reference import INTERVAL_S, Speedometer


def brute_parking(n):
    return {
        values
        for values in itertools.product(range(1, n), repeat=n - 1)
        if all(v <= k + 1 for k, v in enumerate(sorted(values)))
    }


def test_pollak_is_n_to_one_onto_parking_functions():
    for n, count in ((4, 16), (5, 125)):
        fibers = collections.Counter(
            pollak_shift(n, seq) for seq in itertools.product(range(n), repeat=n - 1)
        )
        assert set(fibers) == brute_parking(n)
        assert len(fibers) == count == n ** (n - 2)
        assert set(fibers.values()) == {n}


def test_random_and_structured_inputs_are_parking_and_seeded():
    assert random_parking(250, random.Random(3)) == random_parking(250, random.Random(3))
    assert is_parking(random_parking(1000, random.Random(3)))
    assert all(is_parking(values) for values in structured_parking(400).values())
    assert not is_parking((2, 2, 3))


def test_speedometer_interrupts_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speedometer()
    speed.start()
    start = perf_counter()
    while perf_counter() - start < 10 * INTERVAL_S:
        pass
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.loops) >= 5  # one before, several during, one after
    assert 0 < speed.spent_s < 10 * INTERVAL_S
    assert 0 < speed.loop_s < INTERVAL_S


def test_benchmark_json_names_match_run_py():
    import run

    spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer_names())
