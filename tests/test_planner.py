"""The query planner: cost model, backend choice, and the identity invariant.

The standing invariant of ``repro.plan`` — the planner is an optimizer,
never an oracle — is asserted four ways with increasing generality:

1. ``TestCostModel`` / ``TestChooseMethod`` prove the pricing machinery in
   isolation (exact fits, clamps, persistence, ranking).
2. ``TestPlanner`` proves each planned execution path (batch, conjunction,
   ordering, filters) returns document sets identical to the naive RAMBO
   full path on hand-picked workloads.
3. ``PlannerEquivalenceMachine`` lets Hypothesis interleave index growth,
   fold-over, shard merges and filtered/unfiltered planned queries, and
   re-checks the identity against a planner built fresh over the mutated
   artifact after every rule.
4. ``TestServedPlanning`` proves the serving integration: ``backend="auto"``
   resolves to a concrete coalescable method, and a filtered HTTP answer is
   bit-identical to filtering the naive local answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from hypothesis_profiles import tier
from repro.baselines import (
    CobsIndex,
    HowDeSbt,
    InvertedIndex,
    SequenceBloomTree,
    SplitSequenceBloomTree,
)
from repro.core.base import QUERY_METHODS, check_query_method
from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import save_index
from repro.kmers.extraction import KmerDocument
from repro.meta import MetadataStore
from repro.plan import (
    COST_MODEL_FORMAT_VERSION,
    Backend,
    CostModel,
    Planner,
    choose_method,
    cost_model_path,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import start_http_server
from repro.serve.service import QueryService

CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 11, k=9, seed=13)

TERM_UNIVERSE = 64


def make_doc(name: str, terms) -> KmerDocument:
    return KmerDocument(name, np.asarray(sorted(set(terms)), dtype=np.uint64))


def build_index(num_docs: int = 8, config: RamboConfig = CONFIG) -> Rambo:
    index = Rambo(config)
    index.add_documents(
        [make_doc(f"doc{i}", [i, i + 7, (i * 3) % TERM_UNIVERSE]) for i in range(num_docs)]
    )
    return index


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_fit_recovers_exact_linear_constants(self):
        truth = {"setup": 2e-4, "per_term": 3e-6, "per_term_selectivity": 8e-6}
        samples = [
            ("b", n, sel, truth["setup"] + n * (truth["per_term"] + truth["per_term_selectivity"] * sel))
            for n in (8, 64, 512)
            for sel in (0.0, 0.25, 1.0)
        ]
        model = CostModel()
        assert model.fit(samples) == ["b"]
        for name, want in truth.items():
            assert model.coefficients("b")[name] == pytest.approx(want, rel=1e-6)

    def test_fit_clamps_negative_noise_and_handles_rank_deficiency(self):
        # All samples at selectivity 0: the selectivity slope is unconstrained
        # and must come back 0, not arbitrary.
        model = CostModel()
        model.fit([("b", n, 0.0, 1e-4 + n * 2e-6) for n in (4, 32, 256)])
        assert model.coefficients("b")["per_term_selectivity"] == 0.0
        # A decreasing series would fit a negative slope: clamped to 0.
        model.fit([("c", 10, 0.0, 5e-3), ("c", 100, 0.0, 1e-3)])
        assert model.coefficients("c")["per_term"] == 0.0

    def test_estimate_clamps_inputs_and_floors_output(self):
        model = CostModel({"b": {"setup": -1.0, "per_term": 0.0}})
        assert model.estimate("b", 10, 0.5) == 1e-12  # floored, never negative
        model.set_backend("b", {"per_term_selectivity": 1e-3})
        assert model.estimate("b", 4, 7.0) == model.estimate("b", 4, 1.0)  # sel clamped
        with pytest.raises(KeyError, match="no cost constants"):
            model.estimate("nope", 1, 0.0)

    def test_merged_with_prefers_the_calibrated_side(self):
        defaults = CostModel({"a": {"setup": 1.0}, "b": {"setup": 2.0}})
        fitted = CostModel({"b": {"setup": 9.0}})
        merged = fitted.merged_with(defaults)
        assert merged.coefficients("a")["setup"] == 1.0  # default survives
        assert merged.coefficients("b")["setup"] == 9.0  # fit wins

    def test_persistence_roundtrip_and_version_gate(self, tmp_path):
        model = CostModel({"b": {"setup": 1e-4, "per_term": 2e-6}})
        index_path = tmp_path / "index.rambo2"
        target = model.save_for(index_path)
        assert target == cost_model_path(index_path)
        assert CostModel.load_for(index_path).to_dict() == model.to_dict()
        assert CostModel.load_for(tmp_path / "other.rambo2") is None
        payload = model.to_dict()
        payload["format_version"] = COST_MODEL_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported cost model version"):
            CostModel.from_dict(payload)

    def test_model_saved_beside_an_index_round_trips(self, tmp_path):
        model = CostModel({"b": {"setup": 3e-4}})
        index_path = tmp_path / "index.rambo"
        model.save_for(index_path)
        loaded = CostModel.load_for(index_path)
        assert loaded is not None and loaded.to_dict() == model.to_dict()
        assert CostModel.load_for(tmp_path / "missing.rambo") is None

    def test_fit_from_grid_parses_bench_rows_and_rejects_gridless_streams(self):
        rows = {
            f"b@n={n},sel=lo": {"terms": n, "selectivity": 0.0, "seconds": 1e-4 + n * 1e-6}
            for n in (8, 64)
        }
        model = CostModel()
        assert model.fit_from_grid([{"title": "x", "rows": {"other": {"speedup": 2.0}}},
                                    {"title": "grid", "rows": rows}]) == ["b"]
        assert "b" in model
        with pytest.raises(ValueError, match="no timing-grid rows"):
            CostModel().fit_from_grid([{"title": "x", "rows": {"r": {"speedup": 1.0}}}])

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            CostModel({"b": {"setup": float("nan")}})


class TestChooseMethod:
    def test_ranking_follows_the_model(self):
        index = build_index()
        cheap_sparse = CostModel(
            {
                "batch-full": {"per_term": 1e-3},
                "batch-sparse": {"per_term": 1e-6},
            }
        )
        method, estimates = choose_method(index, 100, 0.1, cheap_sparse)
        assert method == "sparse"
        assert estimates["batch-sparse"] < estimates["batch-full"]
        cheap_full = CostModel(
            {
                "batch-full": {"per_term": 1e-6},
                "batch-sparse": {"per_term": 1e-3},
            }
        )
        method, _ = choose_method(index, 100, 0.1, cheap_full)
        assert method == "full"

    def test_sparse_never_offered_without_the_capability(self):
        index = InvertedIndex(k=9)
        index.add_documents([make_doc("d0", [1, 2, 3])])
        method, estimates = choose_method(index, 10, 0.0)
        assert method == "full"
        assert "batch-sparse" not in estimates


# ---------------------------------------------------------------------------
# Satellite: uniform method= validation across the index hierarchy
# ---------------------------------------------------------------------------


INDEX_FACTORIES = {
    "rambo": lambda: build_index(num_docs=3),
    "cobs": lambda: CobsIndex(num_bits=1 << 10, num_hashes=2, k=13, seed=2),
    "inverted": lambda: InvertedIndex(k=13),
    "sbt": lambda: SequenceBloomTree(num_bits=1 << 10, num_hashes=1, k=13, seed=2),
    "ssbt": lambda: SplitSequenceBloomTree(num_bits=1 << 10, num_hashes=2, k=13, seed=2),
    "howdesbt": lambda: HowDeSbt(num_bits=1 << 10, num_hashes=1, k=13, seed=2),
}


class TestUniformMethodValidation:
    def test_error_names_the_valid_methods(self):
        with pytest.raises(ValueError) as excinfo:
            check_query_method("banana")
        message = str(excinfo.value)
        assert "unknown query method 'banana'" in message
        for valid in QUERY_METHODS:
            assert valid in message

    @pytest.mark.parametrize("kind", sorted(INDEX_FACTORIES))
    def test_every_index_rejects_identically(self, kind):
        index = INDEX_FACTORIES[kind]()
        if index.num_documents == 0:
            index.add_documents([make_doc("d0", [1, 2, 3])])
        expected = "unknown query method 'banana' \\(expected one of full, sparse\\)"
        with pytest.raises(ValueError, match=expected):
            index.query_terms_batch([1], method="banana")
        with pytest.raises(ValueError, match=expected):
            index.query_terms([1], method="banana")


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def naive_batch(index, terms):
    return [r.documents for r in index.query_terms_batch(terms, method="full")]


class TestPlanner:
    @pytest.fixture()
    def planner(self):
        return Planner.for_index(build_index())

    def test_for_index_registers_the_three_strategies(self, planner):
        assert planner.backend_names == ["batch-full", "batch-sparse", "scalar-full"]
        production = Planner.for_index(build_index(), include_scalar=False)
        assert production.backend_names == ["batch-full", "batch-sparse"]

    def test_every_backend_matches_the_naive_full_path(self, planner):
        terms = list(range(0, TERM_UNIVERSE, 3))
        index = planner.backend("batch-full").index
        expected = naive_batch(index, terms)
        for backend in ["auto", *planner.backend_names]:
            execution = planner.execute(terms, backend=backend)
            assert [r.documents for r in execution.results] == expected

    def test_auto_picks_the_cheapest_estimate(self, planner):
        planner.cost_model = CostModel(
            {
                "batch-full": {"per_term": 1e-3},
                "batch-sparse": {"per_term": 1e-6},
                "scalar-full": {"per_term": 1e-2},
            }
        )
        plan = planner.plan(list(range(16)))
        assert plan.backend == "batch-sparse"
        assert plan.requested == "auto"
        assert set(plan.estimates) == set(planner.backend_names)

    def test_explicit_backend_short_circuits_but_still_prices(self, planner):
        plan = planner.plan(list(range(8)), backend="scalar-full")
        assert plan.backend == "scalar-full"
        assert plan.requested == "scalar-full"
        assert "batch-full" in plan.estimates  # /stats still shows the comparison

    def test_unknown_backend_and_mode_fail_loudly(self, planner):
        with pytest.raises(ValueError, match="unknown backend 'cobs'"):
            planner.execute([1], backend="cobs")
        with pytest.raises(ValueError, match="unknown plan mode"):
            planner.execute([1], mode="union")

    def test_conjunction_ordering_preserves_the_intersection(self, planner):
        index = planner.backend("batch-full").index
        # doc0's terms plus a term in every document: rarest-first ordering
        # will move the common term last, the intersection must not change.
        common = 7  # present in doc0 (0+7) and as i+7 for doc i... pick real terms
        terms = [0, common, 21]
        expected = index.query_terms(terms, method="full").documents
        execution = planner.execute(terms, mode="conjunction")
        assert execution.result.documents == expected
        unordered = planner.execute(terms, mode="conjunction", order_terms=False)
        assert unordered.result.documents == expected
        assert unordered.plan.ordered is False

    def test_filters_require_a_metadata_store(self, planner):
        with pytest.raises(ValueError, match="no metadata store attached"):
            planner.execute([1], filters={"collection": "ena"})

    def test_filtered_execution_equals_local_filtering(self):
        index = build_index()
        meta = MetadataStore(
            {name: {"parity": str(i % 2)} for i, name in enumerate(index.document_names)}
        )
        planner = Planner.for_index(index, metadata=meta)
        terms = list(range(0, TERM_UNIVERSE, 5))
        filters = {"parity": "0"}
        execution = planner.execute(terms, filters=filters)
        expected = [
            frozenset(d for d in docs if meta.matches(d, filters))
            for docs in naive_batch(index, terms)
        ]
        assert [r.documents for r in execution.results] == expected
        assert execution.plan.filtered is True

    def test_stats_counts_decisions(self, planner):
        planner.execute([1, 2, 3])
        planner.execute([4], backend="batch-full")
        stats = planner.stats()
        assert stats["plans"] == 2
        assert stats["auto"] == 1
        assert sum(stats["by_backend"].values()) == 2
        assert stats["by_mode"] == {"batch": 2}
        assert stats["backends"] == planner.backend_names

    def test_calibrate_fits_every_registered_backend(self, planner):
        model = planner.calibrate(sizes=(4, 16), repeats=1, seed=3)
        assert model is planner.cost_model
        for name in planner.backend_names:
            assert name in model
        # A calibrated planner still satisfies the identity invariant.
        terms = list(range(0, 32, 2))
        index = planner.backend("batch-full").index
        assert [
            r.documents for r in planner.execute(terms).results
        ] == naive_batch(index, terms)

    def test_plan_as_dict_is_json_ready(self, planner):
        import json

        plan = planner.plan(list(range(4)))
        record = plan.as_dict()
        json.dumps(record)
        assert record["n_terms"] == 4
        assert record["mode"] == "batch"

    def test_scalar_backend_handles_conjunction_early_exit(self):
        index = build_index()
        backend = Backend("scalar", index, method="full", scalar=True)
        expected = index.query_terms([0, 7, 999], method="full").documents
        assert backend.run_conjunction([0, 7, 999]).documents == expected


# ---------------------------------------------------------------------------
# Stateful equivalence: planned == naive under arbitrary index evolution
# ---------------------------------------------------------------------------


term_sets = st.lists(
    st.integers(min_value=0, max_value=TERM_UNIVERSE - 1), min_size=1, max_size=6
)


class PlannerEquivalenceMachine(RuleBasedStateMachine):
    """Hypothesis drives grow / fold / merge / query through the planner.

    After every rule, a planner built over the evolved artifact must return
    document sets identical to the naive RAMBO full path — for every
    backend, both execution modes, with and without metadata filters.  The
    metadata store is name-keyed, so it survives fold and merge untouched;
    that survival is part of what this machine checks.
    """

    def __init__(self):
        super().__init__()
        self.config = CONFIG
        self.index = Rambo(self.config)
        self.meta = MetadataStore()
        self.counter = 0
        self._add_docs([[1, 2], [3, 4]])

    def _add_docs(self, term_lists):
        docs = []
        for terms in term_lists:
            name = f"doc{self.counter:04d}"
            docs.append(make_doc(name, terms))
            self.meta.set(name, {"group": str(self.counter % 3)})
            self.counter += 1
        self.index.add_documents(docs)

    def _planner(self) -> Planner:
        return Planner.for_index(self.index, metadata=self.meta)

    @rule(term_lists=st.lists(term_sets, min_size=1, max_size=3))
    def grow(self, term_lists):
        self._add_docs(term_lists)

    @rule()
    def fold(self):
        if self.index.num_partitions % 2 == 0 and self.index.num_partitions > 1:
            self.index = self.index.fold()
            self.config = self.index.config

    @rule(term_lists=st.lists(term_sets, min_size=1, max_size=2))
    def merge_shard(self, term_lists):
        shard = Rambo(self.config)
        docs = []
        for terms in term_lists:
            name = f"doc{self.counter:04d}"
            docs.append(make_doc(name, terms))
            self.meta.set(name, {"group": str(self.counter % 3)})
            self.counter += 1
        shard.add_documents(docs)
        self.index = merge_indexes([self.index, shard])

    @rule(terms=term_sets, backend=st.sampled_from(["auto", "batch-full", "batch-sparse", "scalar-full"]))
    def query_batch(self, terms, backend):
        planner = self._planner()
        expected = naive_batch(self.index, terms)
        execution = planner.execute(terms, backend=backend)
        assert [r.documents for r in execution.results] == expected

    @rule(terms=term_sets, backend=st.sampled_from(["auto", "batch-sparse"]))
    def query_conjunction(self, terms, backend):
        planner = self._planner()
        expected = self.index.query_terms(terms, method="full").documents
        execution = planner.execute(terms, mode="conjunction", backend=backend)
        assert execution.result.documents == expected

    @rule(terms=term_sets, group=st.sampled_from(["0", "1", "2"]))
    def query_filtered(self, terms, group):
        planner = self._planner()
        filters = {"group": group}
        expected = [
            frozenset(d for d in docs if self.meta.matches(d, filters))
            for docs in naive_batch(self.index, terms)
        ]
        execution = planner.execute(terms, backend="auto", filters=filters)
        assert [r.documents for r in execution.results] == expected


PlannerEquivalenceMachine.TestCase.settings = tier("stateful")


class TestPlannerEquivalenceStateful(PlannerEquivalenceMachine.TestCase):
    """Run the equivalence machine under the ``stateful`` tier."""


# ---------------------------------------------------------------------------
# Serving integration: auto resolution, filters, HTTP round-trip identity
# ---------------------------------------------------------------------------


def _served_setup(tmp_path, with_metadata=True):
    index = build_index(num_docs=10)
    meta = MetadataStore(
        {
            name: {"collection": "ena" if i % 2 else "refseq", "accession": f"ERR{i}"}
            for i, name in enumerate(index.document_names)
        }
    )
    path = tmp_path / "served.rambo2"
    save_index(index, path, metadata=meta if with_metadata else None)
    service = QueryService.open(path, tick_seconds=0.001)
    return index, meta, service


class TestServedPlanning:
    def test_auto_resolves_to_a_concrete_method(self, tmp_path):
        index, _, service = _served_setup(tmp_path)
        with service:
            plan = service.resolve_backend(list(range(12)), "auto")
            assert plan["requested"] == "auto"
            assert plan["method"] in ("full", "sparse")
            assert plan["estimates"]
            explicit = service.resolve_backend([1], "sparse")
            assert explicit["method"] == "sparse"
            with pytest.raises(ValueError, match="unknown backend 'banana'"):
                service.resolve_backend([1], "banana")

    def test_query_planned_filters_equal_local_filtering(self, tmp_path):
        index, meta, service = _served_setup(tmp_path)
        with service:
            terms = list(range(0, TERM_UNIVERSE, 4))
            filters = {"collection": "ena"}
            batch, plan = service.query_planned(terms, backend="auto", filters=filters)
            expected = [
                frozenset(d for d in docs if meta.matches(d, filters))
                for docs in naive_batch(index, terms)
            ]
            assert [r.documents for r in batch.results] == expected
            assert plan["filtered"] is True
            assert service.stats()["planner"]["filtered"] == 1

    def test_filters_without_sidecar_fail_loudly(self, tmp_path):
        _, _, service = _served_setup(tmp_path, with_metadata=False)
        with service:
            with pytest.raises(ValueError, match="no metadata sidecar"):
                service.query_planned([1], filters={"collection": "ena"})

    def test_swap_reloads_the_artifacts_only_for_a_new_path(self, tmp_path, monkeypatch):
        index, _, service = _served_setup(tmp_path)
        served = tmp_path / "served.rambo2"
        bare = tmp_path / "bare.rambo2"
        save_index(index, bare)  # no sidecar beside this one
        with service:
            reloads = []
            reload_artifacts = service._reload_artifacts
            monkeypatch.setattr(
                service,
                "_reload_artifacts",
                lambda path: (reloads.append(str(path)), reload_artifacts(path))[1],
            )
            # An ingest publish: the same base path again — nothing to probe.
            service.swap(index, served)
            assert reloads == [] and len(service.metadata) == index.num_documents
            # A new path drops the sidecar it does not have ...
            service.swap(index, bare)
            assert reloads == [str(bare)] and service.metadata is None
            with pytest.raises(ValueError, match="no metadata sidecar"):
                service.query_planned([1], filters={"collection": "ena"})
            # ... and the old one picks it up again.
            service.swap(index, served)
            assert len(service.metadata) == index.num_documents
            # rotate always reloads, also in place (a rewritten cost model).
            service.rotate(served)
            assert reloads == [str(bare), str(served), str(served)]

    def test_http_roundtrip_is_bit_identical_to_local_filtering(self, tmp_path):
        index, meta, service = _served_setup(tmp_path)
        server, thread = start_http_server(service)
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            terms = [int(t) for t in range(0, TERM_UNIVERSE, 3)]
            filters = {"collection": "ena"}
            response = client.query(terms, backend="auto", filters=filters)
            expected = [
                sorted(d for d in docs if meta.matches(d, filters))
                for docs in naive_batch(index, terms)
            ]
            assert [e["documents"] for e in response["results"]] == expected
            assert response["plan"]["filtered"] is True
            assert response["plan"]["method"] in ("full", "sparse")
            # Unfiltered explicit-backend answers stay the plain served path.
            plain = client.query(terms, backend="full")
            assert [e["documents"] for e in plain["results"]] == [
                sorted(docs) for docs in naive_batch(index, terms)
            ]
            # Error surfaces: malformed filters and unknown backends are 400s.
            with pytest.raises(ServeClientError) as excinfo:
                client.query(terms, filters={"collection": []})
            assert excinfo.value.status == 400
            with pytest.raises(ServeClientError) as excinfo:
                client.query(terms, backend="banana")
            assert excinfo.value.status == 400
            # The stats record reports the plan decisions.
            planner_stats = client.stats()["planner"]
            assert planner_stats["plans"] >= 2
            assert planner_stats["metadata_documents"] == index.num_documents
        finally:
            server.shutdown()
            service.close()
