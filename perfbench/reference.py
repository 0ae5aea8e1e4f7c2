"""Fixed pure-Python reference work, timed in its own fresh process.

    python3 perfbench/reference.py

Prints the seconds its loop took.  It imports nothing from ogpkit, so no
change to the program can move it: run.py times it before and after every
pass and divides the machine's speed out of the pass's timings (see
README.md).  The loop leans on what ogpkit spends its time on: building
tuples, frozensets and dicts, hashing, and sorting with a key function.
"""

import time

ROUNDS = 120


def work():
    total = 0
    for _ in range(ROUNDS):
        table = {}
        for i in range(3000):
            table[(i % 97, str(i))] = frozenset(range(i % 7))
        ordered = sorted(table, key=lambda k: (k[0], k[1]))
        total += len(ordered) + sum(len(v) for v in table.values())
    return total


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
