"""Command-line interface: build, query and inspect RAMBO indexes on disk.

The original RAMBO/COBS tools are driven from the shell over directories of
sequence files; this CLI mirrors that workflow on top of the library:

``repro-rambo build``
    Index a directory of ``.fasta`` / ``.fastq`` / ``.mcc`` (McCortex-lite)
    files into a RAMBO index in the zero-copy ``RAMBO2`` container.
    Documents stream through the batched insert pipeline in bounded-memory
    chunks (``--batch-size``).

``repro-rambo query``
    Open an index and query any number of terms and/or sequences in one
    invocation; prints one line per query with the matching document
    names.  All terms are answered through the vectorised batch engine,
    probing the mapped file directly (a file of the retired v1 container
    is read into memory instead).

``repro-rambo info``
    Print the configuration, size breakdown and fill statistics of an index;
    ``--json`` emits the same record machine-readably (the exact schema the
    serve command's ``/stats`` endpoint embeds).

``repro-rambo fold``
    Open an index, fold it over N times and write the smaller index out as
    ``RAMBO2`` (so folding a v1 file also converts it).

``repro-rambo serve``
    Hold an index open and answer concurrent clients over JSON/HTTP: many
    clients' terms coalesce into one batched engine call per tick, hot terms
    are answered from an LRU cache, and ``POST /rotate`` swaps in a rebuilt
    index atomically without dropping in-flight queries.

``repro-rambo query --server URL``
    Send the terms to a running ``serve`` process instead of opening an
    index file locally; output format is identical to the local path.

``repro-rambo ingest``
    Stream a directory of sequence files into a running ``serve --wal``
    process: each batch is appended durably (WAL-fsynced before the
    acknowledgement) and becomes queryable immediately via the delta
    overlay; ``--compact`` folds the delta into a new snapshot generation
    afterwards.

``repro-rambo calibrate``
    Micro-measure the index's evaluation strategies on this machine and
    write the fitted cost model next to the artifact (``<index>.cost.json``)
    — the constants ``query --backend auto`` and the serve planner use to
    pick full vs sparse per batch.  ``--from-json`` fits from a
    ``REPRO_BENCH_JSON`` stream (the bench_ablation timing grid) instead of
    measuring.

The CLI is intentionally a thin shell over the public API so that every code
path it exercises is also reachable (and tested) as a library call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.config import configure_from_sample
from repro.core.executor import get_num_threads, num_threads
from repro.core.folding import fold_rambo
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import describe_index, open_index, save_index
from repro.io.fasta import read_fasta
from repro.io.fastq import read_fastq
from repro.io.mccortex import read_mccortex
from repro.kmers.extraction import DEFAULT_K, document_from_sequences, normalise_query_term
from repro.utils.memory import human_bytes
from repro.utils.timing import Timer

_SEQUENCE_SUFFIXES = {".fasta", ".fa", ".fna", ".fastq", ".fq", ".mcc"}


def _document_paths(input_dir: Path) -> List[Path]:
    """Recognised sequence files under *input_dir*, in sorted order."""
    paths = [
        path
        for path in sorted(input_dir.iterdir())
        if path.suffix.lower() in _SEQUENCE_SUFFIXES
    ]
    if not paths:
        raise SystemExit(f"no sequence files (*.fasta, *.fastq, *.mcc) found in {input_dir}")
    return paths


def _parse_document(path: Path, k: int, min_count: int, canonical: bool = False):
    """Parse one sequence file into an index-ready document.

    Every reader hands back a numpy term-code array — sequence files run
    through the vectorised extraction kernel, McCortex files store codes
    directly — so documents flow from disk into the batched hash/scatter
    pipeline without a Python-int round-trip.  McCortex input is already
    extracted (and canonicalised upstream, if at all), so ``canonical`` and
    ``min_count`` only apply to FASTA/FASTQ input.
    """
    suffix = path.suffix.lower()
    name = path.stem
    if suffix == ".mcc":
        return read_mccortex(path).to_document()
    if suffix in (".fastq", ".fq"):
        sequences = [record.sequence for record in read_fastq(path)]
        return document_from_sequences(
            name, sequences, k=k, canonical=canonical, min_count=min_count,
            source_format="fastq",
        )
    sequences = [record.sequence for record in read_fasta(path)]
    return document_from_sequences(
        name, sequences, k=k, canonical=canonical, source_format="fasta"
    )


def _cmd_build(args: argparse.Namespace) -> int:
    input_dir = Path(args.input_dir)
    if not input_dir.is_dir():
        raise SystemExit(f"input directory {input_dir} does not exist")
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    paths = _document_paths(input_dir)

    # Parse lazily and insert in bounded batches so only one batch of
    # documents is ever resident — the streaming construction the paper's
    # I/O-bound build relies on.  Parsing and inserting are timed
    # separately: the "built in" figure must stay a pure index-construction
    # observation (Table 2's unit), not parse I/O.
    parse_seconds = 0.0
    build_seconds = 0.0

    def next_batch(doc_iter) -> list:
        nonlocal parse_seconds
        with Timer() as parse_timer:
            batch = list(islice(doc_iter, args.batch_size))
        parse_seconds += parse_timer.wall_seconds
        return batch

    doc_iter = (
        _parse_document(
            path,
            k=args.kmer_size,
            min_count=args.min_kmer_count,
            canonical=args.canonical,
        )
        for path in paths
    )
    first_batch = next_batch(doc_iter)
    if args.partitions and args.repetitions and args.bfu_bits:
        config = RamboConfig(
            num_partitions=args.partitions,
            repetitions=args.repetitions,
            bfu_bits=args.bfu_bits,
            bfu_hashes=args.bfu_hashes,
            k=args.kmer_size,
            seed=args.seed,
        )
    else:
        # Auto-configuration: B, R and the BFU size are chosen for the
        # *full* file count; only the per-document cardinality is pooled
        # from the first batch (the paper's tiny-fraction estimate).
        config = configure_from_sample(
            first_batch,
            fp_rate=args.fp_rate,
            num_partitions=args.partitions or None,
            repetitions=args.repetitions or None,
            bfu_hashes=args.bfu_hashes,
            k=args.kmer_size,
            seed=args.seed,
            num_documents=len(paths),
        )
    index = Rambo(config)
    num_documents = 0
    batch = first_batch
    # With an effective thread count above one (--threads or REPRO_THREADS)
    # each batch's insert is sharded across the executor pool; the sharded
    # path is bit-identical to the inline one, so the written index does
    # not depend on the thread count.
    parallel_insert = get_num_threads() > 1
    while batch:
        with Timer() as build_timer:
            index.add_documents(batch, parallel=parallel_insert)
        build_seconds += build_timer.wall_seconds
        num_documents += len(batch)
        batch = next_batch(doc_iter)
    print(f"parsed {num_documents} documents from {input_dir} in {parse_seconds:.2f}s")
    print(
        f"config: B={config.num_partitions} R={config.repetitions} "
        f"bfu_bits={config.bfu_bits} eta={config.bfu_hashes} k={config.k}"
    )
    metadata = _load_metadata_file(args.metadata) if args.metadata else None
    written = save_index(index, args.output, metadata=metadata)
    print(f"built in {build_seconds:.2f}s, wrote {human_bytes(written)} to {args.output}")
    if metadata is not None:
        covered = sum(1 for name in index.document_names if name in metadata)
        print(
            f"wrote metadata sidecar for {len(metadata)} documents "
            f"({covered}/{index.num_documents} indexed documents covered)"
        )
    return 0


def _load_metadata_file(path: str):
    """Parse a ``--metadata`` JSON file into a :class:`MetadataStore`.

    Accepts either the sidecar format (``{"format_version": 1, "documents":
    {...}}``) or a bare ``{name: {field: value}}`` mapping.
    """
    from repro.meta import MetadataStore

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"metadata file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"metadata file {path} is not valid JSON: {exc}") from None
    try:
        if isinstance(payload, dict) and "documents" in payload:
            return MetadataStore.from_dict(payload)
        if isinstance(payload, dict):
            return MetadataStore(payload)
    except ValueError as exc:
        raise SystemExit(f"bad metadata file {path}: {exc}") from None
    raise SystemExit(f"metadata file {path} must be a JSON object")


def _parse_filters(pairs: Sequence[str]):
    """``--filter k=v`` pairs -> a filter mapping (repeated keys OR together)."""
    filters: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise SystemExit(f"bad --filter {pair!r}: expected FIELD=VALUE")
        existing = filters.get(key.strip())
        if existing is None:
            filters[key.strip()] = value
        elif isinstance(existing, list):
            existing.append(value)
        else:
            filters[key.strip()] = [existing, value]
    return filters


def _normalise_term(term: str, k: int, canonical: bool = False):
    """Encode DNA terms the way the build path stores them.

    Thin alias of :func:`repro.kmers.extraction.normalise_query_term` — the
    one rule the CLI, the serve HTTP front end and the client share, so a
    term means the same thing through every door.
    """
    return normalise_query_term(term, k, canonical=canonical)


def _cmd_query_server(args: argparse.Namespace) -> int:
    """Answer the query against a running ``serve`` process over HTTP."""
    from repro.serve.client import ServeClient, ServeClientError

    if args.sequence:
        raise SystemExit(
            "--sequence is not supported with --server (sequence queries are "
            "conjunctive; query the index file locally instead)"
        )
    # With --server there is no local index file, so every positional —
    # including the slot that would otherwise name the index — is a term.
    terms = ([args.index] if args.index else []) + list(args.terms)
    if not terms:
        raise SystemExit("nothing to query: pass terms")
    method = "sparse" if args.sparse else "full"
    filters = _parse_filters(args.filter) if args.filter else None
    client = ServeClient(args.server)
    try:
        # Terms go up verbatim; the server normalises DNA words against its
        # own k, exactly like the local path does.  --backend/--filter route
        # through the server-side planner.
        response = client.query(
            terms,
            method=method,
            canonical=args.canonical,
            backend=args.backend,
            filters=filters,
        )
    except ServeClientError as exc:
        raise SystemExit(f"server query failed: {exc}") from exc
    plan = response.get("plan")
    if plan and args.backend == "auto":
        print(f"# plan: method={plan['method']}", file=sys.stderr)
    for entry in response["results"]:
        matches = ",".join(entry["documents"]) or "-"
        print(f"{entry['term']}\t{matches}\t{entry['filters_probed']}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.server:
        return _cmd_query_server(args)
    # Auto-detects the file format: v1 indexes are loaded into memory, mmap
    # indexes are served zero-copy straight from the file.
    if not args.index:
        raise SystemExit("an index file is required unless --server is given")
    index = open_index(args.index)
    method = "sparse" if args.sparse else "full"

    queries: List[str] = list(args.terms)
    sequences: List[str] = [s for s in (args.sequence or []) if s]
    if not queries and not sequences:
        raise SystemExit("nothing to query: pass terms and/or --sequence")
    filters = _parse_filters(args.filter) if args.filter else None
    if args.backend or filters:
        return _cmd_query_planned(args, index, queries, sequences, filters)
    # Each sequence is a conjunctive batch over its k-mers, answered by the
    # vectorised query_terms engine; one output line per sequence, in order.
    for sequence in sequences:
        try:
            result = index.query_sequence(sequence, canonical=args.canonical, method=method)
        except ValueError as exc:
            raise SystemExit(f"bad --sequence value: {exc}") from exc
        matches = ",".join(sorted(result.documents)) or "-"
        print(f"sequence\t{matches}\t{result.filters_probed}")
    if queries:
        # All terms go through the batched engine in one call.
        results = index.query_terms_batch(
            [_normalise_term(term, index.k, canonical=args.canonical) for term in queries],
            method=method,
        )
        for term, result in zip(queries, results):
            matches = ",".join(sorted(result.documents)) or "-"
            print(f"{term}\t{matches}\t{result.filters_probed}")
    return 0


#: CLI backend spellings -> planner backend names.
_BACKEND_NAMES = {"auto": "auto", "full": "batch-full", "sparse": "batch-sparse"}


def _cmd_query_planned(args, index, queries, sequences, filters) -> int:
    """The planned local query path (``--backend`` and/or ``--filter``).

    Builds a :class:`repro.plan.Planner` over the opened index, picking up
    the calibrated cost model and the metadata sidecar next to the artifact;
    plan decisions go to stderr so stdout stays the same term/matches/probes
    table the unplanned path prints.
    """
    from repro.kmers.vectorized import extract_kmer_codes
    from repro.plan import CostModel, Planner

    backend = _BACKEND_NAMES[args.backend or ("sparse" if args.sparse else "full")]
    try:
        from repro.meta import load_sidecar_for

        planner = Planner.for_index(
            index,
            cost_model=CostModel.load_for(args.index),
            metadata=load_sidecar_for(args.index),
            include_scalar=False,
        )
    except ValueError as exc:
        raise SystemExit(f"cannot plan over {args.index}: {exc}") from exc

    def run(terms, mode):
        try:
            return planner.execute(terms, mode=mode, backend=backend, filters=filters)
        except ValueError as exc:
            raise SystemExit(f"query failed: {exc}") from exc

    for sequence in sequences:
        kmers = extract_kmer_codes(sequence, k=index.k, canonical=args.canonical)
        if kmers.size == 0:
            raise SystemExit(
                f"bad --sequence value: sequence of length {len(sequence)} "
                f"yields no {index.k}-mers"
            )
        execution = run(list(kmers), "conjunction")
        result = execution.result
        print(f"# plan: {json.dumps(execution.plan.as_dict())}", file=sys.stderr)
        matches = ",".join(sorted(result.documents)) or "-"
        print(f"sequence\t{matches}\t{result.filters_probed}")
    if queries:
        terms = [_normalise_term(t, index.k, canonical=args.canonical) for t in queries]
        execution = run(terms, "batch")
        print(f"# plan: {json.dumps(execution.plan.as_dict())}", file=sys.stderr)
        for term, result in zip(queries, execution.results):
            matches = ",".join(sorted(result.documents)) or "-"
            print(f"{term}\t{matches}\t{result.filters_probed}")
    return 0


def _cmd_calibrate(args) -> int:
    """Fit and persist the per-backend cost model for one index artifact."""
    from repro.plan import CostModel, Planner, cost_model_path

    output = Path(args.output) if args.output else cost_model_path(args.index)
    if args.from_json:
        model = CostModel()
        try:
            lines = Path(args.from_json).read_text(encoding="utf-8").splitlines()
            payload = [json.loads(line) for line in lines if line.strip()]
        except FileNotFoundError:
            raise SystemExit(f"bench JSON file {args.from_json} does not exist") from None
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{args.from_json} is not a JSONL stream: {exc}") from None
        try:
            fitted = model.fit_from_grid(payload)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    else:
        index = open_index(args.index)
        try:
            sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            raise SystemExit(f"bad --sizes {args.sizes!r}: expected N,N,...") from None
        if not sizes or min(sizes) < 1:
            raise SystemExit(f"bad --sizes {args.sizes!r}: need positive batch sizes")
        planner = Planner.for_index(index, include_scalar=not args.no_scalar)
        with Timer() as timer:
            model = planner.calibrate(sizes=sizes, repeats=args.repeats, seed=args.seed)
        # The merged model also carries hint-derived defaults; report only
        # the backends this run actually measured.
        fitted = planner.backend_names
        print(f"measured {len(fitted)} backends over sizes {sizes} in {timer.wall_seconds:.2f}s")
    model.save(output)
    print(f"fitted backends: {', '.join(fitted)}")
    for name in fitted:
        coefficients = model.coefficients(name)
        print(
            f"  {name}: setup={coefficients['setup']:.3e}s "
            f"per_term={coefficients['per_term']:.3e}s "
            f"per_term_selectivity={coefficients['per_term_selectivity']:.3e}s"
        )
    print(f"wrote cost model to {output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    # Both output modes render the same describe_index record — the schema
    # the serve command's /stats endpoint embeds — so ops tooling parsing
    # either source sees identical numbers.
    index = open_index(args.index)
    record = describe_index(index, args.index)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    config = index.config
    print(f"index file      : {record['path']}")
    print(f"format          : {record['format']}" + (" (memory-mapped)" if record["mapped"] else ""))
    print(f"documents       : {record['documents']}")
    print(f"partitions (B)  : {record['partitions']}")
    print(f"repetitions (R) : {record['repetitions']}")
    print(f"BFU bits        : {config.bfu_bits} ({config.bfu_hashes} hashes)")
    print(f"k-mer length    : {record['k']}")
    for component, size in record["size_bytes"].items():
        if component != "total":
            print(f"size[{component:<11}]: {human_bytes(size)}")
    print(f"size[total      ]: {human_bytes(record['size_bytes']['total'])}")
    fill = record.get("fill_ratio")
    if fill and index.num_partitions * index.repetitions:
        print(f"BFU fill ratio  : min={fill['min']:.3f} mean={fill['mean']:.3f} "
              f"max={fill['max']:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # The service opens the index once (mmap files serve zero-copy) and the
    # HTTP layer fans every client into the shared coalescer.
    from repro.serve.http import start_http_server
    from repro.serve.service import QueryService

    if args.tick_ms < 0:
        raise SystemExit(f"--tick-ms must be >= 0, got {args.tick_ms}")
    if args.cache_size < 0:
        raise SystemExit(f"--cache-size must be >= 0, got {args.cache_size}")
    if args.compact_after < 0:
        raise SystemExit(f"--compact-after must be >= 0, got {args.compact_after}")
    if args.replicate_from:
        # Warm standby: no local index file — the base snapshot comes from
        # the primary (or a previous standby run of the same --wal dir).
        if args.index:
            raise SystemExit(
                "--replicate-from takes no index argument (the base snapshot "
                "is fetched from the primary)"
            )
        if not args.wal:
            raise SystemExit("--replicate-from requires --wal DIR")
        from repro.replicate import ReplicaEngine

        service, _replica = ReplicaEngine.bootstrap(
            args.replicate_from,
            args.wal,
            service_opts={
                "cache_size": args.cache_size,
                "tick_seconds": args.tick_ms / 1000.0,
            },
            segment_bytes=args.wal_segment_bytes,
            promote_kwargs={
                "auto_compact_docs": args.compact_after,
                "group_commit_ms": args.group_commit_ms,
                "replica_ack": args.replica_ack,
            },
        )
        served = f"standby of {args.replicate_from}"
    else:
        if not args.index:
            raise SystemExit("an index file is required unless --replicate-from is given")
        service = QueryService.open(
            args.index,
            cache_size=args.cache_size,
            tick_seconds=args.tick_ms / 1000.0,
        )
        served = args.index
        if args.wal:
            # Streaming ingest: recover the WAL directory's state (replaying any
            # appends a previous process acknowledged but never compacted) and
            # expose POST /append and /compact.  Appends published after this
            # line are durable before they are acknowledged.
            from repro.ingest import IngestEngine

            engine = IngestEngine(
                service,
                args.wal,
                auto_compact_docs=args.compact_after,
                segment_bytes=args.wal_segment_bytes,
                group_commit_ms=args.group_commit_ms,
                replica_ack=args.replica_ack,
            )
            service.attach_ingest(engine)
    server, _thread = start_http_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    print(f"serving {served} on http://{host}:{port}", flush=True)
    if args.ready_file:
        # Ops/CI handshake: the file appears only once the socket is bound,
        # so a supervisor can poll for it instead of parsing stdout.
        Path(args.ready_file).write_text(f"{host} {port}\n", encoding="utf-8")
    try:
        # serve_forever runs on the daemon thread; this thread just waits
        # for the interrupt so Ctrl-C shuts down cleanly.
        _thread.join()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.shutdown()
        service.close()
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    """Promote a running standby to primary via ``POST /promote``."""
    from repro.serve.client import ServeClient, ServeClientError

    try:
        record = ServeClient(args.server).promote()
    except ServeClientError as exc:
        raise SystemExit(f"promote failed: {exc}") from exc
    if record.get("promoted"):
        print(
            f"promoted {args.server} to primary "
            f"(generation {record.get('generation')})"
        )
    else:
        print(
            f"{args.server} is already a {record.get('role', 'primary')} "
            f"(generation {record.get('generation')})"
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a directory of sequence files into a running ``serve --wal``."""
    from repro.serve.client import ServeClient, ServeClientError

    input_dir = Path(args.input_dir)
    if not input_dir.is_dir():
        raise SystemExit(f"input directory {input_dir} does not exist")
    if args.batch_size < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {args.batch_size}")
    paths = _document_paths(input_dir)
    client = ServeClient(args.server)

    def to_record(path: Path) -> dict:
        # McCortex files already hold extracted k-mer codes, so they go up
        # as ready term lists; FASTA/FASTQ go up as raw sequences and run
        # through the *server's* extractor against the served index's k —
        # the client never needs to know (or guess) k.
        if path.suffix.lower() == ".mcc":
            codes = read_mccortex(path).to_document().term_codes()
            return {"name": path.stem, "terms": [int(code) for code in codes]}
        reader = read_fastq if path.suffix.lower() in (".fastq", ".fq") else read_fasta
        return {
            "name": path.stem,
            "sequences": [record.sequence for record in reader(path)],
        }

    sent = 0
    with Timer() as timer:
        for start in range(0, len(paths), args.batch_size):
            batch = [to_record(path) for path in paths[start : start + args.batch_size]]
            try:
                ack = client.append(
                    batch, canonical=args.canonical, min_count=args.min_kmer_count
                )
            except ServeClientError as exc:
                raise SystemExit(f"append failed after {sent} documents: {exc}") from exc
            sent += ack["appended"]
            print(
                f"appended {ack['appended']} documents "
                f"(delta now {ack['delta_documents']}, WAL {human_bytes(ack['wal_bytes'])}, "
                f"snapshot {ack['snapshot_id']})"
            )
    if args.compact:
        try:
            record = client.compact()
        except ServeClientError as exc:
            raise SystemExit(f"compaction failed: {exc}") from exc
        if record.get("compacted"):
            print(
                f"compacted {record['documents_folded']} documents into generation "
                f"{record['generation']} in {record['wall_seconds']:.2f}s"
            )
        else:
            print("nothing to compact")
    print(f"ingested {sent} documents from {input_dir} in {timer.wall_seconds:.2f}s")
    return 0


def _cmd_fold(args: argparse.Namespace) -> int:
    index = open_index(args.index)
    before = index.size_in_bytes()
    folded = fold_rambo(index, args.folds)
    written = save_index(folded, args.output)
    print(
        f"folded {args.folds}x: B {index.num_partitions} -> {folded.num_partitions}, "
        f"size {human_bytes(before)} -> {human_bytes(folded.size_in_bytes())}, "
        f"wrote {human_bytes(written)} to {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-rambo",
        description="Build and query RAMBO (Repeated And Merged Bloom Filter) indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="index a directory of sequence files")
    build.add_argument("input_dir", help="directory of .fasta/.fastq/.mcc files")
    build.add_argument("output", help="path of the index file to write")
    build.add_argument("--kmer-size", type=int, default=DEFAULT_K, help="k-mer length (default 31)")
    build.add_argument("--fp-rate", type=float, default=0.01, help="target false-positive rate")
    build.add_argument("--partitions", type=int, default=0, help="override B (0 = auto)")
    build.add_argument("--repetitions", type=int, default=0, help="override R (0 = auto)")
    build.add_argument("--bfu-bits", type=int, default=0, help="override BFU size in bits (0 = auto)")
    build.add_argument("--bfu-hashes", type=int, default=2, help="hash probes per BFU (default 2)")
    build.add_argument(
        "--min-count", "--min-kmer-count", dest="min_kmer_count", type=int, default=1,
        help="error-filter threshold applied to FASTQ input (default 1 = keep all); "
             "--min-kmer-count is accepted as an alias",
    )
    build.add_argument(
        "--canonical", action="store_true",
        help="index canonical (strand-neutral) k-mers: each window is stored "
             "as min(kmer, reverse_complement); query with --canonical too",
    )
    build.add_argument(
        "--batch-size", type=int, default=256,
        help="documents per streamed insert batch; bounds construction memory "
             "(default 256; auto-configuration samples the first batch)",
    )
    build.add_argument("--seed", type=int, default=0, help="hash seed")
    build.add_argument(
        "--metadata", metavar="FILE", default=None,
        help="JSON file of per-document metadata ({name: {field: value}}); "
             "written as a sidecar next to the index and used by "
             "'query --filter' and the serve planner's filters",
    )
    build.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="worker threads for construction (default: REPRO_THREADS, else "
             "all cores); the built index is bit-identical for every N",
    )
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="query terms and/or sequences against an index")
    query.add_argument(
        "index", nargs="?", default=None,
        help="index file written by 'build' (omitted when --server is used: "
             "every positional is then a term)",
    )
    query.add_argument(
        "terms", nargs="*",
        help="terms (k-mers or words) to query; all terms are answered in one vectorised batch",
    )
    query.add_argument(
        "--server", metavar="URL", default=None,
        help="query a running 'repro-rambo serve' process at URL instead of "
             "opening an index file locally (terms only; output format is "
             "identical to the local path)",
    )
    query.add_argument(
        "--sequence", action="append", default=[], metavar="SEQ",
        help="query a whole sequence (conjunction of its k-mers); repeatable",
    )
    query.add_argument("--sparse", action="store_true", help="use the RAMBO+ sparse evaluation")
    query.add_argument(
        "--backend", choices=("auto", "full", "sparse"), default=None,
        help="evaluation backend: 'auto' lets the cost-based planner pick "
             "full vs sparse per batch (using <index>.cost.json when "
             "present); 'full'/'sparse' force one; default: legacy --sparse "
             "behaviour",
    )
    query.add_argument(
        "--filter", action="append", default=[], metavar="FIELD=VALUE",
        help="restrict results to documents whose metadata matches (requires "
             "an index built with --metadata); repeatable — same field ORs, "
             "different fields AND",
    )
    query.add_argument(
        "--canonical", action="store_true",
        help="canonicalise query k-mers (use against an index built with --canonical)",
    )
    query.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="executor thread count (default: REPRO_THREADS, else all cores); "
             "kept for compatibility — a RAMBO batch query runs on the calling "
             "thread, and results are bit-identical for every N",
    )
    query.set_defaults(func=_cmd_query)

    info = sub.add_parser("info", help="print index configuration and size breakdown")
    info.add_argument("index", help="index file written by 'build'")
    info.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable describe_index record (the same "
             "schema the serve command's /stats endpoint embeds)",
    )
    info.set_defaults(func=_cmd_info)

    serve = sub.add_parser(
        "serve", help="serve an index over JSON/HTTP with coalescing and caching"
    )
    serve.add_argument(
        "index", nargs="?", default=None,
        help="index file written by 'build' (v1 or mmap); omitted with "
             "--replicate-from (the base snapshot comes from the primary)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (default 8080; 0 picks a free port, printed on start)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="hot-term answer-cache capacity in entries (default 4096; 0 disables)",
    )
    serve.add_argument(
        "--tick-ms", type=float, default=2.0, metavar="MS",
        help="request-coalescing window in milliseconds (default 2.0; 0 = "
             "opportunistic batching)",
    )
    serve.add_argument(
        "--wal", metavar="DIR", default=None,
        help="enable streaming ingest: write-ahead-log directory for POST "
             "/append durability; replayed on startup (crash recovery) and "
             "compacted into new snapshot generations",
    )
    serve.add_argument(
        "--compact-after", type=int, default=1024, metavar="N",
        help="with --wal: background-compact the delta into a new snapshot "
             "once it holds N documents (default 1024; 0 = manual "
             "compaction via POST /compact only)",
    )
    serve.add_argument(
        "--replicate-from", metavar="URL", default=None,
        help="run as a warm standby of the primary at URL: fetch its base "
             "snapshot, tail its WAL stream into --wal DIR, serve read-only "
             "queries; POST /promote turns this node into a primary",
    )
    serve.add_argument(
        "--wal-segment-bytes", type=int, default=None, metavar="N",
        help="with --wal: roll the WAL to a fresh segment once the current "
             "one reaches N bytes (default 64 MiB; 0 = one segment per "
             "generation)",
    )
    serve.add_argument(
        "--group-commit-ms", type=float, default=None, metavar="MS",
        help="with --wal: group-commit window — concurrent appends arriving "
             "within MS share one fsync (default REPRO_GROUP_COMMIT_MS or 0 "
             "= one fsync per batch)",
    )
    serve.add_argument(
        "--replica-ack", type=int, default=0, metavar="N",
        help="with --wal: acknowledge appends only after N standbys durably "
             "applied them (default 0 = asynchronous replication); standbys "
             "whose ack lease expires stop counting, so a dead standby "
             "degrades to async instead of blocking writes",
    )
    serve.add_argument(
        "--ready-file", metavar="PATH", default=None,
        help="write 'host port' to PATH once the socket is bound (supervisor/CI handshake)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.set_defaults(func=_cmd_serve)

    ingest = sub.add_parser(
        "ingest", help="stream a directory of sequence files into a running serve --wal"
    )
    ingest.add_argument("input_dir", help="directory of .fasta/.fastq/.mcc files to append")
    ingest.add_argument(
        "--server", metavar="URL", required=True,
        help="base URL of a 'repro-rambo serve --wal' process",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="documents per append request — one WAL fsync (and one durable "
             "acknowledgement) per batch (default 64)",
    )
    ingest.add_argument(
        "--min-count", "--min-kmer-count", dest="min_kmer_count", type=int, default=1,
        help="error-filter threshold applied server-side to FASTQ input "
             "(default 1 = keep all)",
    )
    ingest.add_argument(
        "--canonical", action="store_true",
        help="extract canonical k-mers server-side (match an index built with --canonical)",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="request a compaction (delta folded into a new snapshot "
             "generation) after the last batch",
    )
    ingest.set_defaults(func=_cmd_ingest)

    promote = sub.add_parser(
        "promote",
        help="promote a running standby ('serve --replicate-from') to primary",
    )
    promote.add_argument(
        "--server", metavar="URL", required=True,
        help="base URL of the standby to promote (idempotent on a primary)",
    )
    promote.set_defaults(func=_cmd_promote)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit the per-backend cost model for 'query --backend auto' and serve",
    )
    calibrate.add_argument("index", help="index file written by 'build'")
    calibrate.add_argument(
        "--output", metavar="PATH", default=None,
        help="where to write the model (default: <index>.cost.json, which "
             "'query --backend auto' and 'serve' pick up automatically)",
    )
    calibrate.add_argument(
        "--sizes", default="16,128,512", metavar="N,N,...",
        help="batch sizes measured per backend (default 16,128,512)",
    )
    calibrate.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing repeats per grid cell; the minimum is kept (default 3)",
    )
    calibrate.add_argument("--seed", type=int, default=0, help="probe-term RNG seed")
    calibrate.add_argument(
        "--no-scalar", action="store_true",
        help="skip measuring the scalar reference backend (faster calibration)",
    )
    calibrate.add_argument(
        "--from-json", metavar="FILE", default=None,
        help="fit from a REPRO_BENCH_JSON stream containing the "
             "bench_ablation backend timing grid instead of measuring",
    )
    calibrate.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="worker threads during measurement (match your serving config)",
    )
    calibrate.set_defaults(func=_cmd_calibrate)

    fold = sub.add_parser("fold", help="fold an index over to shrink it")
    fold.add_argument("index", help="index file written by 'build'")
    fold.add_argument("output", help="path of the folded index file to write")
    fold.add_argument("--folds", type=int, default=1, help="number of fold-over steps (default 1)")
    fold.set_defaults(func=_cmd_fold)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``repro-rambo info idx | head -1``)
    ends the command with exit code 1 and no traceback, following the
    ``BrokenPipeError`` recipe of Python's :mod:`signal` documentation.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise SystemExit(f"--threads must be >= 1, got {threads}")
    try:
        # Scoped so a --threads choice cannot leak into later library calls
        # when main() is driven programmatically (tests, notebooks).
        with num_threads(threads) if threads is not None else nullcontext():
            code = args.func(args)
        # Flushed here, so a closed pipe raises inside this try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
