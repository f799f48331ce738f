"""Seeded inputs for the two workloads, and the answer digest they are checked with.

Every workload draws its operations from a fixed *universe* of point
specs, so the reference digests in ``reference.json`` cover every seed:
the seed only chooses which points run, in which order, and how often.
The program under test receives nothing but the generated specs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence

#: the paper's broadcast protocols (shared-address, FIFO, direct-put, tree)
BCAST_PROTOCOLS = (
    "torus-shaddr", "torus-fifo", "torus-direct-put",
    "tree-shaddr", "tree-dma-fifo", "tree-shmem",
)
#: the shared-address allreduce and the pre-paper ("current") baseline
ALLREDUCE_PROTOCOLS = ("allreduce-torus-shaddr", "allreduce-torus-current")
#: the collective-network protocols: farm campaigns and serve-farm misses
#: use only these
TREE_PROTOCOLS = ("tree-shaddr", "tree-dma-fifo", "tree-shmem")

#: message sizes: bytes for bcast, doubles for allreduce
SIZES = {"bcast": (1024, 16384, 131072), "allreduce": (256, 2048, 16384)}

SMALL = (2, 2, 2)
MEDIUM = (4, 4, 2)

#: sizes of the serve-farm miss universe: 256 distinct broadcast sizes per
#: tree protocol, enough distinct misses for a farm twice as fast as today
MISS_SIZES = tuple(128 * k for k in range(1, 257))


def spec(family: str, algorithm: str, dims: Sequence[int], x: int) -> dict:
    """One point spec, accepted by ``run_point`` and by the serve protocol."""
    return {"family": family, "algorithm": algorithm, "x": int(x),
            "dims": list(dims), "iters": 1}


def point_id(point: dict) -> str:
    dims = "x".join(str(d) for d in point["dims"])
    return f"{point['family']}/{point['algorithm']}/{dims}/{point['x']}"


def _protocols() -> List[tuple]:
    return ([("bcast", name) for name in BCAST_PROTOCOLS]
            + [("allreduce", name) for name in ALLREDUCE_PROTOCOLS])


def small_points() -> List[dict]:
    """The 2x2x2 points: serve-farm draws its hot set from these."""
    return [spec(family, name, SMALL, x)
            for family, name in _protocols() for x in SIZES[family]]


def tiny_points() -> List[dict]:
    """The cheapest points (2x2x2 tree protocols, 2-4 ms each): farm campaigns."""
    return [point for point in small_points()
            if point["algorithm"] in TREE_PROTOCOLS]


def miss_cells() -> List[List[dict]]:
    """serve-farm misses: 256 distinct 4x4x2 broadcast sizes per tree protocol.

    A 4x4x2 tree point computes in about 10 ms, so a sweep of two is done
    on the farm long before the driver's second fetch, half a second
    after its first, even on a host running at half speed.
    """
    return [[spec("bcast", name, MEDIUM, x) for x in MISS_SIZES]
            for name in TREE_PROTOCOLS]


def universe() -> List[dict]:
    """Every point any workload can run (the reference covers all of them)."""
    return small_points() + [p for cell in miss_cells() for p in cell]


def even_rounds(cells: List[List[dict]], rng: random.Random,
                rounds: int) -> List[dict]:
    """``rounds`` rounds that each send every cell once, in shuffled order.

    A cell holds one protocol's points, sorted by size, and its length is
    a power of two.  Round ``r`` takes from each cell the point at index
    ``bit_reverse(r) ^ mask``, with a seeded mask per cell.  Any run of
    ``2**k`` rounds then takes one point from each ``1/2**k`` of a cell's
    size range, so whatever prefix of the plan a run gets through, and
    whatever the seed, it holds nearly the same mix of protocols and sizes.
    """
    size = len(cells[0])
    bits = size.bit_length() - 1
    if any(len(cell) != 1 << bits for cell in cells):
        raise ValueError("every cell must hold the same power-of-two count")
    masks = [rng.randrange(size) for _ in cells]
    plan = []
    for round_no in range(rounds):
        rev = int(format(round_no % size, f"0{bits}b")[::-1], 2)
        picks = [cell[rev ^ mask] for cell, mask in zip(cells, masks)]
        rng.shuffle(picks)
        plan.extend(picks)
    return plan


def zipf_plan(size: int, rng: random.Random, count: int) -> List[int]:
    """``count`` Zipf-weighted draws (exponent 1) of indices into ``range(size)``.

    The seed decides which index holds which popularity rank.
    """
    ranked = rng.sample(range(size), size)
    weights = [1.0 / rank for rank in range(1, size + 1)]
    return rng.choices(ranked, weights=weights, k=count)


def plan_digest(plan) -> str:
    """A short digest of generated inputs, to show two runs used the same."""
    blob = json.dumps(plan, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def answer_digest(algorithm: str, nbytes: int, nprocs: int,
                  elapsed_us: float, iterations_us: Sequence[float]) -> str:
    """Digest of one simulated answer, exact to the last bit of every float.

    Taken over the simulated numbers only (not the run manifest), so it
    is the same for an in-process result and for the JSON a server sends.
    """
    blob = json.dumps([
        algorithm, int(nbytes), int(nprocs), float(elapsed_us).hex(),
        [float(v).hex() for v in iterations_us],
    ]).encode()
    return hashlib.sha256(blob).hexdigest()


def result_digest(result) -> str:
    """:func:`answer_digest` of a ``CollectiveResult``."""
    return answer_digest(result.algorithm, result.nbytes, result.nprocs,
                         result.elapsed_us, result.iterations_us)


def response_digest(response: Dict) -> str:
    """:func:`answer_digest` of a served prediction response."""
    return answer_digest(response["algorithm"], response["nbytes"],
                         response["nprocs"], response["elapsed_us"],
                         response["iterations_us"])
