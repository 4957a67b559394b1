"""The metadata sidecar: normalise-and-match filtering and persistence.

The contract under test (docs/ARCHITECTURE.md, "Query planning & metadata"):
one normalisation rule on both sides of every comparison, OR within a
field, AND across fields, documents without a record never match — and a
bitmap-level ``apply`` that is bit-identical to filtering the unfiltered
result name-by-name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import QueryResult
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import describe_index, open_index, save_index
from repro.io.diskformat import read_container_header
from repro.kmers.extraction import KmerDocument
from repro.meta import (
    METADATA_FORMAT_VERSION,
    MetadataStore,
    load_sidecar_for,
    sidecar_path,
)
from repro.meta.store import normalise_field, normalise_value


@pytest.fixture()
def store() -> MetadataStore:
    return MetadataStore(
        {
            "doc0": {"Collection": " ENA ", "date": "2021-03-01", "accession": "ERR1"},
            "doc1": {"collection": "RefSeq", "date": "2021-03-01"},
            "doc2": {"collection": "ena", "date": "2020-12-31", "accession": "ERR2"},
            # doc3 deliberately has no record.
        }
    )


class TestNormalisation:
    def test_field_and_value_rules_are_strip_plus_casefold(self):
        assert normalise_field("  Collection ") == "collection"
        assert normalise_value(" ENA ") == "ena"
        assert normalise_value(2021) == "2021"

    def test_empty_field_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            normalise_field("   ")
        with pytest.raises(ValueError, match="non-empty"):
            MetadataStore({"doc": {" ": "x"}})

    def test_empty_document_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetadataStore().set("", {"a": 1})

    def test_colliding_fields_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            MetadataStore({"doc": {"Collection": "a", " collection ": "b"}})

    def test_raw_values_preserved_for_roundtrip(self, store):
        assert store.get("doc0") == {
            "Collection": " ENA ",
            "date": "2021-03-01",
            "accession": "ERR1",
        }
        assert store.get("doc3") is None


class TestMatching:
    def test_match_is_normalised_on_both_sides(self, store):
        assert store.matches("doc0", {"COLLECTION": "ena "})
        assert store.matches("doc0", {"collection": " ENA"})
        assert not store.matches("doc1", {"collection": "ena"})

    def test_or_within_field_and_across_fields(self, store):
        either = {"collection": ["ena", "refseq"]}
        assert all(store.matches(d, either) for d in ("doc0", "doc1", "doc2"))
        both = {"collection": "ena", "date": "2021-03-01"}
        assert store.matches("doc0", both)
        assert not store.matches("doc2", both)  # right collection, wrong date

    def test_unrecorded_documents_and_fields_never_match(self, store):
        assert not store.matches("doc3", {"collection": "ena"})
        assert not store.matches("doc1", {"accession": "err1"})  # field absent

    def test_empty_filters_rejected(self, store):
        with pytest.raises(ValueError, match="at least one field"):
            store.matches("doc0", {})
        with pytest.raises(ValueError, match="empty value list"):
            store.matches("doc0", {"collection": []})

    def test_filter_mask_agrees_with_matches(self, store):
        table = ["doc0", "doc1", "doc2", "doc3"]
        filters = {"collection": "ena"}
        mask = store.filter_mask(table, filters)
        assert mask.dtype == bool
        assert mask.tolist() == [store.matches(n, filters) for n in table]


class TestApply:
    TABLE = ("doc0", "doc1", "doc2", "doc3")

    def test_bitmap_apply_equals_name_level_filtering(self, store):
        result = QueryResult(
            doc_ids=np.array([0, 1, 3], dtype=np.int64),
            name_table=self.TABLE,
            filters_probed=7,
        )
        filtered = store.apply(result, {"collection": ["ena", "refseq"]})
        assert filtered.documents == frozenset({"doc0", "doc1"})
        assert filtered.filters_probed == 7  # filtering is bookkeeping, not probing
        # The name-level fallback path must agree bit-for-bit.
        name_level = store.apply(
            QueryResult(documents=result.documents, filters_probed=7),
            {"collection": ["ena", "refseq"]},
        )
        assert name_level.documents == filtered.documents

    def test_apply_batch_matches_per_result_apply(self, store):
        rng = np.random.default_rng(5)
        results = [
            QueryResult(
                doc_ids=np.unique(rng.integers(0, 4, size=3)),
                name_table=self.TABLE,
            )
            for _ in range(6)
        ] + [QueryResult(documents=frozenset({"doc2", "doc3"}))]
        filters = {"date": "2021-03-01"}
        batch = store.apply_batch(results, filters)
        singles = [store.apply(r, filters) for r in results]
        assert [r.documents for r in batch] == [r.documents for r in singles]

    def test_filters_only_shrink(self, store):
        result = QueryResult(
            doc_ids=np.arange(4, dtype=np.int64), name_table=self.TABLE
        )
        filtered = store.apply(result, {"accession": ["err1", "err2"]})
        assert filtered.documents <= result.documents
        assert filtered.documents == frozenset({"doc0", "doc2"})


class TestPersistence:
    def test_dict_roundtrip_preserves_raw_records(self, store):
        clone = MetadataStore.from_dict(store.to_dict())
        assert clone.to_dict() == store.to_dict()
        assert clone.matches("doc0", {"collection": "ena"})

    def test_version_mismatch_rejected(self, store):
        payload = store.to_dict()
        payload["format_version"] = METADATA_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported metadata sidecar version"):
            MetadataStore.from_dict(payload)

    def test_file_roundtrip_and_missing_sidecar(self, store, tmp_path):
        index_path = tmp_path / "index.rambo"
        target = store.save_for(index_path)
        assert target == sidecar_path(index_path)
        loaded = load_sidecar_for(index_path)
        assert loaded is not None and loaded.to_dict() == store.to_dict()
        assert load_sidecar_for(tmp_path / "other.rambo") is None

    def test_malformed_sidecar_fails_loudly(self, tmp_path):
        bad = tmp_path / "x.rambo.meta.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not a valid metadata sidecar"):
            MetadataStore.load(bad)


def _small_index() -> Rambo:
    index = Rambo(RamboConfig(num_partitions=2, repetitions=2, bfu_bits=1 << 10, seed=9))
    index.add_documents(
        [KmerDocument(name=f"doc{i}", terms=[i, i + 10, i + 20]) for i in range(4)]
    )
    return index


class TestSaveIndexIntegration:
    def test_sidecar_written_and_referenced_from_header(self, store, tmp_path):
        index = _small_index()
        path = tmp_path / "index.rambo2"
        save_index(index, path, metadata=store)
        # The sidecar exists and loads back identically ...
        loaded = load_sidecar_for(path)
        assert loaded is not None and loaded.to_dict() == store.to_dict()
        # ... the header names it ...
        assert read_container_header(path)[0]["metadata_sidecar"] == sidecar_path(path).name
        # ... the index itself is untouched by the extension ...
        reopened = open_index(path)
        assert reopened.num_documents == index.num_documents
        # ... and describe_index surfaces the reference.
        record = describe_index(reopened, path=path)
        assert record["metadata_sidecar"] == sidecar_path(path).name
        assert record["capabilities"]["sparse"] is True

    def test_header_field_is_backward_compatible(self, tmp_path):
        """Files written without metadata have no sidecar and still describe."""
        path = tmp_path / "plain.rambo2"
        save_index(_small_index(), path)
        assert load_sidecar_for(path) is None
        assert "metadata_sidecar" not in read_container_header(path)[0]
        record = describe_index(open_index(path), path=path)
        assert record["metadata_sidecar"] is None
        assert record["cost_model"] is None
