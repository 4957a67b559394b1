"""Child process that runs the library workloads' system under test.

``build_bulk`` and ``query_*`` call the library directly, so the code
under test runs here — a fresh process per set-up, whose peak RSS the
parent reads before it stops us.  Protocol on stdin/stdout (one line each):

* we set up (load inputs, open or warm the index), then print ``ready``;
* the parent writes ``go <seconds> <trace 0|1> <out.npz>``; we measure for
  that long, save the samples, print ``done``; repeated until stdin closes.

Only public ``repro`` functions are called; README.md lists them.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro import KmerDocument, Rambo, RamboConfig, open_index, save_index
from repro.kmers import extract_codes_from_reads

from spans import Tracer

WARMUP_SHARE = 0.1  # of every measured window: run, not recorded


class BuildTask:
    """Offline construction from read sets: extract -> add_documents -> save (mmap)."""

    def __init__(self, job: dict) -> None:
        with np.load(job["inputs"]) as data:
            inputs = {key: data[key] for key in data.files}
        self.span_name = job["span"]
        self.config = RamboConfig.from_dict(job["config"])
        self.index_path = job["index"]
        self.chunk = job["chunk"]
        self.reads = [[read.tobytes() for read in doc] for doc in inputs["reads"]]
        bounds, codes = inputs["planted_bounds"], inputs["planted_codes"]
        self.planted = [codes[bounds[d] : bounds[d + 1]] for d in range(len(self.reads))]
        self.names = [f"doc{d:05d}" for d in range(len(self.reads))]
        self._build_chunk(Rambo(self.config), 0)  # warm-up, excluded

    def _build_chunk(self, index: Rambo, start: int) -> None:
        documents = [
            KmerDocument(
                self.names[d],
                np.concatenate(
                    [extract_codes_from_reads(self.reads[d], self.config.k, min_count=2), self.planted[d]]
                ),
                source_format="fastq",
            )
            for d in range(start, min(start + self.chunk, len(self.reads)))
        ]
        index.add_documents(documents)

    def run(self, seconds: float, tracer) -> dict:
        starts, latencies, attempted, saved = [], [], 0, False
        begin = time.perf_counter()
        done = False
        while not done:
            index = Rambo(self.config)
            for start in range(0, len(self.reads), self.chunk):
                t0 = time.perf_counter()
                with tracer.span(self.span_name, request=attempted) if tracer else nullcontext():
                    self._build_chunk(index, start)
                attempted += 1
                if t0 - begin >= WARMUP_SHARE * seconds:
                    starts.append(t0)
                    latencies.append(time.perf_counter() - t0)
                # Stop on the clock, but never before one whole index is on
                # disk for the parent to verify.
                if saved and time.perf_counter() - begin >= seconds:
                    done = True
                    break
            else:
                save_index(index, self.index_path, format="mmap")
                saved = True
                done = time.perf_counter() - begin >= seconds
        return {"starts": np.array(starts), "latencies": np.array(latencies), "attempted": attempted}


class QueryTask:
    """Batched term queries by a library user against an mmap-opened index."""

    def __init__(self, job: dict) -> None:
        self.index = open_index(job["index"])
        self.method, self.span_name = job["method"], job["span"]
        with np.load(job["inputs"]) as data:
            terms = data["terms"]
        self.batches = [
            terms[start : start + job["batch"]].tolist() for start in range(0, len(terms), job["batch"])
        ]
        # The warm-up pass is also the answer the parent verifies.
        docs = self.index.num_documents
        answers = np.zeros((len(terms), docs), dtype=bool)
        probes = []
        row = 0
        for batch in self.batches:
            for result in self.index.query_terms_batch(batch, method=self.method):
                answers[row, result.doc_ids] = True
                probes.append(result.filters_probed)
                row += 1
        np.savez(job["answers"], answers=np.packbits(answers, axis=1), probes=np.array(probes))

    def run(self, seconds: float, tracer) -> dict:
        starts, latencies = [], []
        begin = time.perf_counter()
        for i in itertools.count():
            t0 = time.perf_counter()
            if t0 - begin >= seconds:
                break
            with tracer.span(self.span_name, request=i) if tracer else nullcontext():
                for result in self.index.query_terms_batch(self.batches[i % len(self.batches)], method=self.method):
                    result.documents  # the answer a caller reads: document names
            if t0 - begin >= WARMUP_SHARE * seconds:
                starts.append(t0)
                latencies.append(time.perf_counter() - t0)
        return {"starts": np.array(starts), "latencies": np.array(latencies), "attempted": i}


TASKS = {"build": BuildTask, "query": QueryTask}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    task = TASKS[job["task"]](job)
    print("ready", flush=True)
    for line in sys.stdin:
        _, seconds, trace, out = line.split()
        tracer = Tracer() if trace == "1" else None
        result = task.run(float(seconds), tracer)
        if tracer:
            result["spans"] = np.array(
                [(s[0], s[1], s[3], s[4], s[5]) for s in tracer.spans], dtype=np.int64
            ).reshape(-1, 5)
        np.savez(out, **result)
        print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
