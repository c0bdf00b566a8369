import random

from oracles import run_baggy_differential

from mswasm.baggy import BuddyMemory


def test_baggy_matches_packed_reference():
    for seed in range(200):
        mem = BuddyMemory(64, cap=1 << 10)  # small enough that growth reaches OOM
        run_baggy_differential(mem, random.Random(seed), steps=60)
