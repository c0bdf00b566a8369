import random

from oracles import run_baggy_differential

from mswasm.interp import BaggyBackend


def test_baggy_matches_packed_reference():
    for seed in range(200):
        backend = BaggyBackend(64)
        backend.mem.cap = 1 << 10  # small enough that growth reaches OOM
        run_baggy_differential(backend, random.Random(seed), steps=60)
