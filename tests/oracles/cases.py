"""Seeded scheduler scenarios shared by the batteries and the oracle digest.

Every case is a pure function of its index (and discipline), built
from the same seeds by the engine battery
(``tests/dram/test_engine_differential.py``), the policy battery
(``tests/dram/test_policy_differential.py``) and the oracle digest
(``test_scheduler_digest.py``).  A failure therefore names a
reproducible case, and the digest pins exactly the cases the
batteries compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, TupleSource, WorkloadSource
from repro.dram.geometry import Geometry
from repro.dram.mixed import MixedRequest
from repro.dram.policy import (POLICY_BANK_PARTITION, POLICY_CLOSED_PAGE,
                               POLICY_FRFCFS_CAP)
from repro.dram.presets import TABLE1_CONFIG_NAMES, DramConfig, get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.base import AddressArrays, InterleaverMapping
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

Request = Tuple[int, int, int]
Chunk = Tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]

#: PhaseStats fields that describe the schedule itself.
SCHEDULE_FIELDS = (
    "requests", "page_hits", "page_misses", "page_empties",
    "activates", "precharges", "refreshes", "data_time_ps", "makespan_ps",
)

#: Engine battery sizes: homogeneous and mixed cases.
N_HOMOGENEOUS = 300
N_MIXED = 100

#: The disciplines added after open-page, each with its own salt.
NEW_DISCIPLINES = (POLICY_CLOSED_PAGE, POLICY_FRFCFS_CAP,
                   POLICY_BANK_PARTITION)

#: Policy battery sizes, per new discipline.
N_PER_POLICY = 100
N_MIXED_PER_POLICY = 40

#: Triangle size of the Table I grid phases.
TABLE1_N = 32

MAPPING_FACTORIES: Dict[
        str, Callable[[TriangularIndexSpace, Geometry], InterleaverMapping]] = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(space, geometry),
}

#: Every (configuration, mapping) cell of the Table I grid.
TABLE1_PAIRS = [(c, m) for c in TABLE1_CONFIG_NAMES
                for m in MAPPING_FACTORIES]


@dataclass(frozen=True)
class PhaseCase:
    """One homogeneous scenario; ``chunk_size == 0`` means tuple intake."""

    config: DramConfig
    policy: ControllerConfig
    requests: List[Request]
    op: str
    chunk_size: int = 0

    def stream(self) -> Union[Iterator[Request], Iterator[Chunk]]:
        """A fresh intake stream in the case's shape."""
        if self.chunk_size:
            return as_chunks(self.requests, self.chunk_size)
        return iter(self.requests)

    def source(self) -> WorkloadSource:
        """The engine source of a fresh :meth:`stream`."""
        if not self.chunk_size:
            return TupleSource(iter(self.requests))
        # Typed as a mapping's chunks: an ndarray is no ``Sequence``.
        chunks: Iterator[AddressArrays] = as_chunks(self.requests,
                                                   self.chunk_size)
        return ChunkSource(chunks)


@dataclass(frozen=True)
class MixedCase:
    """One mixed read/write scenario (nothing recorded)."""

    config: DramConfig
    policy: ControllerConfig
    requests: List[MixedRequest]


def engine_rng(index: int) -> random.Random:
    """The engine battery's generator for one case index."""
    return random.Random(0xD1FF * 1000 + index)


def policy_rng(salt: int, index: int) -> random.Random:
    """The policy battery's generator for one (salt, case index)."""
    return random.Random(0x90CC * 100_000 + salt * 1_000 + index)


def pick_stream(rng: random.Random, n_banks: int) -> List[Request]:
    """A request stream with a randomly chosen locality pattern."""
    count = rng.choice([0, 1, 7, 60, 250, 800])
    pattern = rng.choice(["uniform", "thrash", "hot-bank", "runs", "rotate"])
    rows = rng.choice([2, 8, 128])
    requests: List[Request] = []
    if pattern == "uniform":
        for _ in range(count):
            requests.append((rng.randrange(n_banks), rng.randrange(rows),
                             rng.randrange(16)))
    elif pattern == "thrash":
        for k in range(count):
            requests.append((k % n_banks, k % rows, 0))
    elif pattern == "hot-bank":
        hot = rng.randrange(n_banks)
        for _ in range(count):
            bank = hot if rng.random() < 0.8 else rng.randrange(n_banks)
            requests.append((bank, rng.randrange(rows), rng.randrange(16)))
    elif pattern == "runs":
        k = 0
        while k < count:
            bank = rng.randrange(n_banks)
            row = rng.randrange(rows)
            for _ in range(min(rng.randrange(1, 12), count - k)):
                requests.append((bank, row, rng.randrange(16)))
                k += 1
    else:  # rotate: bank rotation with occasional row switches
        row = 0
        for k in range(count):
            if rng.random() < 0.05:
                row = rng.randrange(rows)
            requests.append((k % n_banks, row, k % 16))
    return requests


def as_chunks(requests: List[Request], chunk_size: int) -> Iterator[Chunk]:
    """The same requests as columnar int64 chunks of ``chunk_size``."""
    for start in range(0, len(requests), chunk_size):
        part = requests[start:start + chunk_size]
        yield (np.asarray([r[0] for r in part], dtype=np.int64),
               np.asarray([r[1] for r in part], dtype=np.int64),
               np.asarray([r[2] for r in part], dtype=np.int64))


def _pick_queues(rng: random.Random) -> ControllerConfig:
    """Queue shape and refresh switch: the first draws of every policy."""
    return ControllerConfig(
        queue_depth=rng.choice([1, 2, 8, 16, 64, 128]),
        per_bank_depth=rng.choice([1, 2, 4, 16]),
        refresh_enabled=rng.random() < 0.6,
    )


def _pick_discipline(rng: random.Random, discipline: str) -> ControllerConfig:
    """A policy battery policy: queues, then the cap, unrecorded."""
    queues = _pick_queues(rng)
    return replace(queues, discipline=discipline,
                   cap=rng.choice([1, 2, 3, 4, 8]))


def _mixed_requests(rng: random.Random, n_banks: int) -> List[MixedRequest]:
    """A located stream with each request's direction drawn after it."""
    read_fraction = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    base = pick_stream(rng, n_banks)
    return [(rng.random() < read_fraction, b, r, c) for b, r, c in base]


def engine_case(index: int) -> PhaseCase:
    """Homogeneous case ``index`` of the engine battery."""
    rng = engine_rng(index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = replace(_pick_queues(rng), record_commands=True)
    requests = pick_stream(rng, config.geometry.banks)
    op = rng.choice([OP_READ, OP_WRITE])
    chunk_size = 0
    if rng.random() < 0.5:
        chunk_size = rng.choice([1, 13, 200, 4096])
    return PhaseCase(config, policy, requests, op, chunk_size)


def engine_mixed_case(index: int) -> MixedCase:
    """Mixed case ``index`` of the engine battery."""
    rng = engine_rng(10_000 + index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = _pick_queues(rng)
    return MixedCase(config, policy,
                     _mixed_requests(rng, config.geometry.banks))


def policy_case(discipline: str, index: int) -> PhaseCase:
    """Homogeneous case ``index`` of one new discipline (tuple intake)."""
    rng = policy_rng(NEW_DISCIPLINES.index(discipline), index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = replace(_pick_discipline(rng, discipline), record_commands=True)
    requests = pick_stream(rng, config.geometry.banks)
    op = rng.choice([OP_READ, OP_WRITE])
    return PhaseCase(config, policy, requests, op)


def policy_mixed_case(discipline: str, index: int) -> MixedCase:
    """Mixed case ``index`` of one new discipline."""
    rng = policy_rng(50 + NEW_DISCIPLINES.index(discipline), index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = _pick_discipline(rng, discipline)
    return MixedCase(config, policy,
                     _mixed_requests(rng, config.geometry.banks))


def table1_mapping(config: DramConfig, mapping_name: str) -> InterleaverMapping:
    """One Table I grid mapping at :data:`TABLE1_N`."""
    space = TriangularIndexSpace(TABLE1_N)
    return MAPPING_FACTORIES[mapping_name](space, config.geometry)


def phase_chunks(mapping: InterleaverMapping,
                 op: str) -> Iterator[AddressArrays]:
    """A fresh address-chunk stream of one Table I phase."""
    return (mapping.write_addresses_array() if op == OP_WRITE
            else mapping.read_addresses_array())
