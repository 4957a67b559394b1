"""The workloads: set-up, closed-loop measurement, and verification of each.

Every workload runs the system under test in a fresh child process — the
library workloads in ``worker.py``, the service workloads in
``python -m repro.cli serve`` — and drives it from this process, the one
load generator, with at most ``CLIENTS`` client threads.  Every service
workload is a *closed loop*: a client sends its next request only when the
previous reply has arrived (callers such as ``repro-rambo query --server``
wait for their reply).

A workload object lives for one set-up: ``setup()`` -> ``measure()`` (once,
or twice for a traced run) -> ``live()`` -> ``verify()`` -> ``stop()``.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import gen
from repro import KmerDocument, Rambo, RamboConfig, open_index, save_index
from repro.serve.client import ServeClient

PERF = Path(__file__).resolve().parent
SRC = PERF.parent / "src"

CLIENTS = 2
REQUEST_TERMS = 8
CHILD_TIMEOUT_S = 120.0
WARMUP_SHARE = 0.1


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload family (``smoke`` sizes finish in seconds)."""

    docs: int
    genome: int
    pool: int
    batch: int = 1024
    chunk: int = 50
    coverage: float = 3.0
    requests: int = 6000
    stream_docs: int = 0
    stream_genome: int = 0
    compact_after: int = 100
    probe: int = 512


SIZES = {
    False: {
        "build": Sizes(docs=1000, genome=2000, pool=16384),
        "query": Sizes(docs=1000, genome=2000, pool=16384),
        "serve": Sizes(docs=1000, genome=2000, pool=16384),
        "ingest": Sizes(docs=1000, genome=2000, pool=16384, stream_docs=1200, stream_genome=1330),
    },
    True: {
        "build": Sizes(docs=48, genome=400, pool=128, chunk=8),
        "query": Sizes(docs=64, genome=400, pool=256, batch=64),
        "serve": Sizes(docs=64, genome=400, pool=256, requests=400),
        "ingest": Sizes(
            docs=64, genome=400, pool=256, requests=400,
            stream_docs=120, stream_genome=300, compact_after=10, probe=64,
        ),
    },
}


# -- child processes ---------------------------------------------------------------------


class Child:
    """A child process whose own peak RSS is read from ``/proc`` before it is stopped.

    (``ru_maxrss`` of a reaped child will not do: on Linux it also covers
    the image the child had between fork and exec, which is this process.)
    """

    def __init__(self, argv: List[str], log: Path, **popen) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(argv, env=env, stderr=stderr, **popen)
        self.peak_rss_kib = 0

    def stop(self) -> None:
        """Note the peak RSS, kill the child, and wait until it has ended.

        SIGKILL throughout: no child holds anything a clean shutdown would
        save (the server's idles up to half a second in ``serve_forever``),
        and the ingest server is meant to survive exactly this.
        """
        if self.proc.poll() is None:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            self.peak_rss_kib = int(status.split("VmHWM:")[1].split()[0])
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe:
                pipe.close()


class Worker(Child):
    """``worker.py`` speaking the ready/go/done line protocol."""

    def __init__(self, job: dict, workdir: Path) -> None:
        self.span, self.out = job["span"], workdir / "samples.npz"
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        super().__init__(
            [sys.executable, str(PERF / "worker.py"), str(job_path)],
            workdir / "worker.log",
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._expect("ready")

    def _expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RuntimeError(f"worker said {line!r}, expected {word!r} (exit {self.proc.poll()})")

    def measure(self, seconds: float, tracer=None) -> "Samples":
        """One measured window in the worker; its spans, if traced, join *tracer*."""
        self.proc.stdin.write(f"go {seconds} {int(tracer is not None)} {self.out}\n")
        self.proc.stdin.flush()
        self._expect("done")
        with np.load(self.out) as data:
            if tracer is not None:
                tracer.extend([(s[0], s[1], self.span, s[2], s[3], s[4]) for s in data["spans"].tolist()])
            return Samples(data["latencies"], data["starts"], int(data["attempted"]))


class Server(Child):
    """``repro-rambo serve`` on a free port, ready when its ready-file appears."""

    def __init__(self, index: Path, workdir: Path, *extra: str) -> None:
        ready = workdir / "ready"
        ready.unlink(missing_ok=True)
        super().__init__(
            [sys.executable, "-m", "repro.cli", "serve", str(index),
             "--port", "0", "--ready-file", str(ready), *extra],
            workdir / "server.log",
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not become ready; see {workdir / 'server.log'}")
            time.sleep(0.005)
        self.host, port = ready.read_text().split()
        self.port = int(port)
        self.url = f"http://{self.host}:{self.port}"


# -- load generation ---------------------------------------------------------------------


class Lane:
    """One closed-loop client thread: ``op(i)`` for i = 0, 1, ... until the clock runs out."""

    def __init__(self, name: str, op: Callable[[int], None], limit: Optional[int] = None) -> None:
        self.name, self.op, self.limit = name, op, limit
        self.next = self.taken = 0
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.errors: List[str] = []

    def run(self, barrier: threading.Barrier, seconds: float, tracer) -> None:
        barrier.wait()
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds and (self.limit is None or self.next < self.limit):
            t0 = time.perf_counter()
            try:
                with tracer.span(self.name, request=self.next) if tracer else nullcontext():
                    self.op(self.next)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
                self.errors.append(f"{self.name}[{self.next}]: {exc!r}")
            if t0 - begin >= WARMUP_SHARE * seconds:
                self.starts.append(t0)
                self.ends.append(time.perf_counter())
            self.next += 1

    def take(self) -> "Samples":
        """The samples recorded since the last call."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        out = Samples(ends - starts, starts, self.next - self.taken, self.errors)
        self.starts, self.ends, self.errors, self.taken = [], [], [], self.next
        return out


def closed_loop(lanes: List[Lane], seconds: float, tracer=None) -> None:
    """Run every lane on its own thread for *seconds*."""
    barrier = threading.Barrier(len(lanes))
    threads = [threading.Thread(target=lane.run, args=(barrier, seconds, tracer)) for lane in lanes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@dataclass
class Samples:
    """Start times and latencies (seconds) of the operations of one measured window.

    The first ``WARMUP_SHARE`` of every window is run (and counted in
    ``attempted``) but not recorded.
    """

    latencies: np.ndarray
    starts: np.ndarray
    attempted: int
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        """Wall seconds from the first recorded start to the last end (one window only)."""
        return float((self.starts + self.latencies).max() - self.starts.min())

    @staticmethod
    def merge(parts: List["Samples"]) -> "Samples":
        return Samples(
            np.concatenate([p.latencies for p in parts]),
            np.concatenate([p.starts for p in parts]),
            sum(p.attempted for p in parts),
            [e for p in parts for e in p.errors],
            {key: max(p.extra[key] for p in parts) for key in parts[0].extra},
        )


# -- ground truth ------------------------------------------------------------------------


def recommended_config(sizes: Sizes) -> RamboConfig:
    """B, R and BFU size by the library's own Section 5.1 rule; fixed hash seed."""
    return RamboConfig.recommended(
        sizes.docs + sizes.stream_docs, sizes.genome,
        expected_multiplicity=gen.MEAN_V, k=gen.K_MER,
    )


def build_index(config: RamboConfig, names: List[str], terms: List[np.ndarray]) -> Rambo:
    index = Rambo(config)
    index.add_documents([KmerDocument(name, codes) for name, codes in zip(names, terms)])
    return index


def answer_matrix(results, docs: int) -> np.ndarray:
    """``(terms, docs)`` bool matrix of a ``query_terms_batch`` result list."""
    matrix = np.zeros((len(results), docs), dtype=bool)
    for row, result in enumerate(results):
        matrix[row, result.doc_ids] = True
    return matrix


def accuracy(answers: np.ndarray, planted: gen.Planted, present: Optional[np.ndarray] = None):
    """(false negatives, false-positive rate) of *answers* against the planted truth.

    *present* restricts the truth to the documents that exist (ingest:
    base plus acknowledged appends); answer columns follow its order.
    """
    pair_term, pair_doc = planted.pair_term, planted.pair_doc
    if present is not None:
        column = np.full(int(max(pair_doc.max(), present.max())) + 1, -1)
        column[present] = np.arange(len(present))
        keep = column[pair_doc] >= 0
        pair_term, pair_doc = pair_term[keep], column[pair_doc[keep]]
    false_negatives = int((~answers[pair_term, pair_doc]).sum())
    negatives = answers.size - len(pair_term)
    return false_negatives, float(answers.sum() - len(pair_term) + false_negatives) / negatives


@dataclass
class Verdict:
    """What verification found; any entry in ``problems`` makes the run incorrect."""

    fp_rate: float
    wrong_ops: int = 0
    problems: List[str] = field(default_factory=list)


# -- the workloads -----------------------------------------------------------------------


class Workload:
    family = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.sizes = SIZES[smoke][self.family]
        self.config = recommended_config(self.sizes)
        self.children: List[Child] = []
        self.index_path = workdir / "index.rambo2"
        self.input_arrays: List[np.ndarray] = []
        workdir.mkdir(parents=True, exist_ok=True)

    @property
    def inputs_sha256(self) -> str:
        """Fingerprint of everything generated from the seed for this workload."""
        return gen.digest(*self.input_arrays)

    @property
    def doc_names(self) -> List[str]:
        return [f"doc{d:05d}" for d in range(self.sizes.docs)]

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Samples:
        raise NotImplementedError

    def live(self) -> Dict:
        """``GET /stats`` of the running server after measuring; nothing for a library workload."""
        server = getattr(self, "server", None)
        return ServeClient(server.url).stats() if server else {}

    def verify(self) -> Verdict:
        raise NotImplementedError

    def after_verify(self) -> Dict[str, float]:
        """Per-layer metrics that only verification can measure (traced run)."""
        return {}

    def stop(self) -> None:
        for child in self.children:
            child.stop()

    @property
    def peak_rss_mib(self) -> float:
        return max(child.peak_rss_kib for child in self.children) / 1024.0

    @property
    def index_bytes_per_doc(self) -> float:
        return self.index_path.stat().st_size / self.sizes.docs

    def _corpus(self) -> None:
        """Documents (k-mer codes + planted terms), the term pool, and the base index file."""
        sizes = self.sizes
        self.planted = gen.planted(self.seed, sizes.docs + sizes.stream_docs, sizes.pool)
        per_doc = self.planted.per_document(sizes.docs + sizes.stream_docs)
        codes = gen.kmer_codes(gen.genomes(self.seed, sizes.docs, sizes.genome))
        self.doc_terms = gen.document_terms(codes, per_doc[: sizes.docs])
        self.stream_planted = per_doc[sizes.docs :]
        self.pool_terms: List[int] = self.planted.terms.tolist()
        save_index(build_index(self.config, self.doc_names, self.doc_terms),
                   self.index_path, format="mmap")
        self.input_arrays += [codes, self.planted.terms, self.planted.pair_term, self.planted.pair_doc]


class BuildBulk(Workload):
    """Offline construction from read sets; the op is one chunk of documents."""

    family = "build"

    def setup(self) -> None:
        sizes = self.sizes
        bases = gen.genomes(self.seed, sizes.docs, sizes.genome)
        reads = gen.reads(self.seed, bases, sizes.coverage)
        self.planted = gen.planted(self.seed, sizes.docs, sizes.pool)
        per_doc = self.planted.per_document(sizes.docs)
        self.reads = reads
        inputs = self.workdir / "inputs.npz"
        np.savez(
            inputs,
            reads=reads,
            planted_codes=np.concatenate(per_doc),
            planted_bounds=np.cumsum([0] + [len(codes) for codes in per_doc]),
        )
        self.input_arrays += [reads, self.planted.terms, self.planted.pair_term, self.planted.pair_doc]
        self.worker = Worker(
            {"task": "build", "span": "build.chunk", "inputs": str(inputs), "index": str(self.index_path),
             "config": self.config.to_dict(), "chunk": sizes.chunk},
            self.workdir,
        )
        self.children.append(self.worker)

    def measure(self, seconds: float, tracer=None) -> Samples:
        return self.worker.measure(seconds, tracer)

    def verify(self) -> Verdict:
        index = open_index(self.index_path)
        problems = []
        if index.document_names != self.doc_names:
            problems.append("built index does not hold exactly the input documents")
        answers = answer_matrix(index.query_terms_batch(self.planted.terms.tolist()), self.sizes.docs)
        false_negatives, fp_rate = accuracy(answers, self.planted)
        if false_negatives:
            problems.append(f"{false_negatives} false negatives in the built index")
        return Verdict(fp_rate, problems=problems)


class QueryBatch(Workload):
    """Batched term queries by a library user; the op is one ``batch``-term call."""

    family = "query"

    def __init__(self, seed: int, smoke: bool, workdir: Path, method: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.method = method

    def setup(self) -> None:
        self._corpus()
        inputs = self.workdir / "inputs.npz"
        np.savez(inputs, terms=self.planted.terms)
        self.answers_path = self.workdir / "answers.npz"
        self.worker = Worker(
            {"task": "query", "span": "query.batch", "inputs": str(inputs), "index": str(self.index_path),
             "answers": str(self.answers_path), "method": self.method, "batch": self.sizes.batch},
            self.workdir,
        )
        self.children.append(self.worker)

    def measure(self, seconds: float, tracer=None) -> Samples:
        return self.worker.measure(seconds, tracer)

    def verify(self) -> Verdict:
        with np.load(self.answers_path) as data:
            answers = np.unpackbits(data["answers"], axis=1, count=self.sizes.docs).astype(bool)
            probes = data["probes"]
        false_negatives, fp_rate = accuracy(answers, self.planted)
        problems = []
        if false_negatives:
            problems.append(f"{false_negatives} false negatives")
        if len(probes) != self.sizes.pool or (probes <= 0).any():
            problems.append("a term reports no filter probes")
        return Verdict(fp_rate, problems=problems)


class Serve(Workload):
    """8-term ``POST /query`` requests, Zipf over a pool 4x the answer cache."""

    family = "serve"

    def __init__(self, seed: int, smoke: bool, workdir: Path, keepalive: bool) -> None:
        super().__init__(seed, smoke, workdir)
        self.keepalive = keepalive

    def setup(self) -> None:
        self._corpus()
        self.server = Server(self.index_path, self.workdir)
        self.children.append(self.server)
        self.requests = [
            gen.zipf_requests(self.seed, self.sizes.pool, self.sizes.requests, REQUEST_TERMS, lane)
            for lane in range(CLIENTS)
        ]
        self.input_arrays += self.requests
        self.responses: List[List] = [[] for _ in range(CLIENTS)]
        self.lanes = [Lane("client.query", self._client(lane)) for lane in range(CLIENTS)]
        # Fill the answer cache with the most popular terms, so the measured
        # window sees the steady-state hit rate and not a cold cache.
        client = ServeClient(self.server.url)
        for start in range(0, min(4096, self.sizes.pool), 1024):
            client.query(self.pool_terms[start : start + 1024])
        self.stats_at_start = client.stats()

    def request_terms(self, lane: int, i: int) -> List[int]:
        row = self.requests[lane][i % len(self.requests[lane])]
        return [self.pool_terms[j] for j in row]

    def _client(self, lane: int) -> Callable[[int], None]:
        responses = self.responses[lane]
        if not self.keepalive:
            client = ServeClient(self.server.url)  # the shipped client: a connection per request
            return lambda i: responses.append(client.query(self.request_terms(lane, i)))
        connection = http.client.HTTPConnection(self.server.host, self.server.port, timeout=30.0)

        def op(i: int) -> None:
            body = json.dumps({"terms": self.request_terms(lane, i), "method": "full",
                               "canonical": False, "coalesce": True})
            connection.request("POST", "/query", body=body,
                               headers={"Content-Type": "application/json"})
            reply = connection.getresponse()
            payload = reply.read()
            if reply.status != 200:
                raise RuntimeError(f"HTTP {reply.status}: {payload[:200]!r}")
            responses.append(json.loads(payload))

        return op

    def measure(self, seconds: float, tracer=None) -> Samples:
        closed_loop(self.lanes, seconds, tracer)
        return Samples.merge([lane.take() for lane in self.lanes])

    def verify(self) -> Verdict:
        """Every HTTP answer equals a local ``query_terms_batch`` on the served file."""
        results = open_index(self.index_path).query_terms_batch(self.pool_terms)
        false_negatives, fp_rate = accuracy(answer_matrix(results, self.sizes.docs), self.planted)
        truth = {
            term: (sorted(result.documents), result.filters_probed)
            for term, result in zip(self.pool_terms, results)
        }
        wrong = sum(
            len(response["results"]) != REQUEST_TERMS
            or any(truth.get(entry["term"]) != (entry["documents"], entry["filters_probed"])
                   for entry in response["results"])
            for lane in self.responses for response in lane
        )
        problems = [f"{false_negatives} false negatives"] if false_negatives else []
        if wrong:
            problems.append(f"{wrong} served answers differ from the local answer")
        return Verdict(fp_rate, wrong_ops=wrong, problems=problems)


class IngestMixed(Workload):
    """One appender and one reader against ``serve --wal``; ``view`` picks the reported op."""

    family = "ingest"

    def __init__(self, seed: int, smoke: bool, workdir: Path, view: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.view = view
        self.recover_s = 0.0

    def setup(self) -> None:
        sizes = self.sizes
        self._corpus()
        stream = gen.kmer_codes(gen.genomes(self.seed, sizes.stream_docs, sizes.stream_genome, stream=1))
        self.stream_terms = gen.document_terms(stream, self.stream_planted)
        self.stream_names = [f"new{d:05d}" for d in range(sizes.stream_docs)]
        self.stream_json = [
            {"name": name, "terms": np.unique(codes).tolist()}
            for name, codes in zip(self.stream_names, self.stream_terms)
        ]
        self.requests = gen.uniform_requests(self.seed, sizes.pool, sizes.requests, REQUEST_TERMS, 0)
        self.input_arrays += [stream, self.requests]
        self.server_args = ("--wal", str(self.workdir / "wal"), "--compact-after", str(sizes.compact_after))
        self.server = Server(self.index_path, self.workdir, *self.server_args)
        self.children.append(self.server)
        client = ServeClient(self.server.url)
        self.acknowledged: List[int] = []
        self.responses: List[Dict] = []

        def append(i: int) -> None:
            client.append([self.stream_json[i]])
            self.acknowledged.append(i)

        def query(i: int) -> None:
            row = self.requests[i % len(self.requests)]
            self.responses.append(client.query([self.pool_terms[j] for j in row]))

        self.appender = Lane("client.append", append, limit=sizes.stream_docs)
        self.reader = Lane("client.query", query)

    def measure(self, seconds: float, tracer=None) -> Samples:
        closed_loop([self.appender, self.reader], seconds, tracer)
        appends, queries = self.appender.take(), self.reader.take()
        shown, other = (appends, queries) if self.view == "append" else (queries, appends)
        shown.attempted += other.attempted
        shown.errors = shown.errors + other.errors
        shown.extra = {"other_max_ms": float(other.latencies.max(initial=0.0)) * 1e3}
        return shown

    def after_verify(self) -> Dict[str, float]:
        return {"ingest.recover_s": self.recover_s}

    def _probe(self, url: str, terms: List[int]) -> List:
        client = ServeClient(url)
        answers = []
        for start in range(0, len(terms), 64):
            for entry in client.query(terms[start : start + 64])["results"]:
                answers.append((entry["documents"], entry["filters_probed"]))
        return answers

    def verify(self) -> Verdict:
        """Live server and the server restarted after ``kill -9`` both equal a rebuild."""
        sizes = self.sizes
        acked = sorted(self.acknowledged)
        rebuilt = build_index(
            self.config,
            self.doc_names + [self.stream_names[i] for i in acked],
            self.doc_terms + [self.stream_terms[i] for i in acked],
        )
        terms = self.pool_terms[: sizes.probe]
        results = rebuilt.query_terms_batch(terms)
        expected = [(sorted(result.documents), result.filters_probed) for result in results]
        present = np.concatenate([np.arange(sizes.docs), sizes.docs + np.array(acked, dtype=np.int64)])
        false_negatives, _ = accuracy(
            answer_matrix(results, len(present)), self.planted.head(sizes.probe), present
        )
        problems = [f"{false_negatives} false negatives in the rebuild"] if false_negatives else []
        # The accuracy figure is the base index's over the whole pool: how
        # many appends a run gets through must not move it.
        base = open_index(self.index_path).query_terms_batch(self.pool_terms)
        base_false_negatives, fp_rate = accuracy(
            answer_matrix(base, sizes.docs), self.planted, np.arange(sizes.docs)
        )
        if base_false_negatives:
            problems.append(f"{base_false_negatives} false negatives in the base index")
        # Reads raced appends, so each is checked against what appends can
        # only add to: the base index's own answer.
        base_documents = dict(zip(self.pool_terms, base))
        wrong = sum(
            any(not base_documents[entry["term"]].documents.issubset(entry["documents"])
                for entry in response["results"])
            for response in self.responses
        )
        if wrong:
            problems.append(f"{wrong} served answers miss a document the base index reports")
        if self._probe(self.server.url, terms) != expected:
            problems.append("live server differs from a rebuild of base + acknowledged documents")
        self.server.stop()
        begin = time.perf_counter()
        survivor = Server(self.index_path, self.workdir, *self.server_args)
        self.recover_s = time.perf_counter() - begin
        self.children.append(survivor)
        if self._probe(survivor.url, terms) != expected:
            problems.append("server restarted after kill -9 differs from the rebuild")
        return Verdict(fp_rate, wrong_ops=wrong, problems=problems)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "build_bulk": BuildBulk,
    "query_full": lambda *a: QueryBatch(*a, method="full"),
    "query_sparse": lambda *a: QueryBatch(*a, method="sparse"),
    "serve_connect": lambda *a: Serve(*a, keepalive=False),
    "serve_keepalive": lambda *a: Serve(*a, keepalive=True),
    "ingest_append": lambda *a: IngestMixed(*a, view="append"),
    "ingest_query": lambda *a: IngestMixed(*a, view="query"),
}
