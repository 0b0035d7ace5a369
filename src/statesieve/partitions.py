"""Partitions of basis-state indices and their refinement by intersection.

A projector with a common eigenbasis splits the basis indices {1..N} into
an eigenvalue-1 block and an eigenvalue-0 block; running several commuting
propositions in sequence refines the partition down to (ideally) singletons.
The positions that share a row of answer codes form a block.  Partitions are
purely combinatorial: indices are 1-based integers, and the basis object
owns the index -> vector correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse, islice
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .linalg import DEFAULT_TOL, _whole, as_matrix
from .systems import _code_blocks

if TYPE_CHECKING:
    from .bases import Basis


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering {1..ground_size}, in canonical form.

    Canonical form (blocks sorted by smallest element, elements ascending
    within a block) is established at construction, so equality is plain
    structural comparison.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (_whole(self.ground_size) and self.ground_size >= 0):
            raise ValueError(f"ground_size must be an integer >= 0, got {self.ground_size!r}")
        object.__setattr__(self, "ground_size", int(self.ground_size))
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks),
                             key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", canon)
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block in partition")
            for i in block:
                if not 1 <= i <= self.ground_size:
                    raise ValueError(f"index {i} outside 1..{self.ground_size}")
                if i in seen:
                    raise ValueError(f"index {i} appears in more than one block")
                seen.add(i)
        gaps = self.ground_size - len(seen)
        if gaps:  # the first ten, walking up from 1: never a set of the whole ground
            missing = list(islice(filterfalse(seen.__contains__, count(1)), min(gaps, 10)))
            shown = missing if gaps <= 10 else f"{gaps} indices, first {missing}"
            raise ValueError(f"blocks do not cover the ground set, missing {shown}")

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_codes(cls, codes) -> "Partition":
        """Blocks of the 1-based positions that share a code row; a 1-D array
        holds one code bit per position."""
        return cls(len(codes), _code_blocks(codes))


def partition_from_projector(p, basis: "Basis",
                             tol: float = DEFAULT_TOL) -> Partition:
    """Partition induced by a projector on a basis of its eigenvectors.

    Blocks are the indices (1-based) with eigenvalue 1 and with eigenvalue
    0.  A projector with only one eigenvalue present yields a single-block
    partition; a basis vector that is not an eigenvector raises
    EigenbasisError.
    """
    p = as_matrix(p)
    if p.shape[0] != basis.dim:
        raise ValueError(f"dimension mismatch: projector {p.shape[0]}, basis {basis.dim}")
    return Partition.from_codes(basis.eigenvalue_bits(p, tol))


def meet(a: Partition, b: Partition) -> Partition:
    """Common refinement: all non-empty pairwise intersections of blocks."""
    return meet_all((a, b))


def meet_all(parts: Iterable[Partition]) -> Partition:
    """Meet of a non-empty sequence of partitions: positions grouped by their block labels."""
    parts = list(parts)
    if not parts:
        raise ValueError("meet_all needs at least one partition")
    ground = parts[0].ground_size
    labels = np.zeros((ground, len(parts)), dtype=int)
    for j, p in enumerate(parts):
        if p.ground_size != ground:
            raise ValueError(f"ground-size mismatch: {ground} vs {p.ground_size}")
        for label, block in enumerate(p.blocks):
            labels[np.subtract(block, 1), j] = label
    return Partition.from_codes(labels)


def is_atomic(p: Partition) -> bool:
    """True iff every block is a singleton: the non-empty blocks are as many as the positions."""
    return len(p) == p.ground_size


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` is contained in some block of `coarse`."""
    return fine.ground_size == coarse.ground_size and meet(fine, coarse) == fine
