#!/usr/bin/env python3
"""Streaming updates and index persistence.

One of the paper's headline properties is "cheap updates for streaming
inputs": new sequence files keep arriving at the archive (the ENA doubles
every two years), and RAMBO absorbs each one with a handful of hash + bit-set
operations — no rebuild, no tree re-balancing.  Contrast that with the SBT
family, where our (and the real) implementations rebuild or restructure the
tree on update.

This example:

1. builds an initial index over an archive snapshot (one bulk
   ``add_documents`` call through the vectorised write pipeline) and saves
   it to disk,
2. simulates a week of new submissions arriving in daily batches, measuring
   the per-document update cost of RAMBO's batched insert vs a rebuilt
   HowDeSBT,
3. saves the updated index, reopens it (memory-mapped), and verifies queries
   see both the old and the newly streamed documents.

Run with::

    python examples/streaming_updates.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import HowDeSbt, Rambo, open_index, save_index
from repro.core.config import configure_from_sample
from repro.kmers.extraction import document_from_sequences
from repro.simulate.genomes import GenomeSimulator
from repro.utils.memory import human_bytes
from repro.utils.timing import Timer

K = 15
INITIAL_DOCS = 30
STREAMED_DOCS = 10
DOCS_PER_DAY = 2  # submissions arrive in small daily batches


def make_documents(start: int, count: int, simulator: GenomeSimulator):
    return [
        document_from_sequences(f"SAMN{start + i:07d}", [simulator.genome(start + i)], k=K)
        for i in range(count)
    ]


def main() -> None:
    simulator = GenomeSimulator(genome_length=3_000, num_ancestors=3, mutation_rate=0.02, seed=13)
    initial = make_documents(0, INITIAL_DOCS, simulator)
    arriving = make_documents(INITIAL_DOCS, STREAMED_DOCS, simulator)

    # ------------------------------------------------------------ initial build
    config = configure_from_sample(initial, fp_rate=0.01, k=K, seed=13)
    rambo = Rambo(config)
    rambo.add_documents(initial)

    terms_per_doc = sum(len(d) for d in initial) // len(initial)
    howde = HowDeSbt.for_capacity(terms_per_doc, fp_rate=0.01, k=K, seed=13)
    howde.add_documents(initial)
    howde.rebuild()

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "archive-v1.rambo"
        written = save_index(rambo, snapshot)
        print(f"initial archive: {INITIAL_DOCS} documents, snapshot {human_bytes(written)}")

        # ------------------------------------------------------ streaming updates
        print(f"\nstreaming {STREAMED_DOCS} new submissions in batches of {DOCS_PER_DAY}:")
        rambo_total = 0.0
        howde_total = 0.0
        for day_start in range(0, len(arriving), DOCS_PER_DAY):
            day_batch = arriving[day_start : day_start + DOCS_PER_DAY]
            with Timer() as rambo_timer:
                # One batched insert absorbs the whole day's submissions:
                # each document's terms are hashed in a single vectorised
                # pass and cache invalidation is paid once per batch.
                rambo.add_documents(day_batch)
            with Timer() as howde_timer:
                howde.add_documents(day_batch)
                howde.rebuild()  # the SBT family must restructure to stay queryable
            rambo_total += rambo_timer.wall_seconds
            howde_total += howde_timer.wall_seconds
        print(f"  RAMBO    : {1000 * rambo_total / STREAMED_DOCS:8.2f} ms per new document "
              f"(batched add_documents)")
        print(f"  HowDeSBT : {1000 * howde_total / STREAMED_DOCS:8.2f} ms per new document "
              f"(full rebuild each batch)")

        # ------------------------------------------------------ persist + reload
        updated = Path(tmp) / "archive-v2.rambo"
        save_index(rambo, updated)
        reloaded = open_index(updated)

        # The reopened index serves from the file, so query it before the
        # temporary directory goes away.
        old_term = next(iter(initial[0].terms))
        new_term = next(iter(arriving[-1].terms))
        old_hits = reloaded.query_term(old_term).documents
        new_hits = reloaded.query_term(new_term).documents
    print(f"\nafter reload: {reloaded.num_documents} documents")
    print(f"  query for an original document's k-mer -> {sorted(old_hits)[:3]}...")
    print(f"  query for a streamed document's k-mer  -> {sorted(new_hits)[:3]}...")
    assert initial[0].name in old_hits
    assert arriving[-1].name in new_hits
    print("\nboth generations of documents are queryable from the reloaded index")


if __name__ == "__main__":
    main()
