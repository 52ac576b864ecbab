"""The streaming subsystem: deltas, incremental enactment, resume.

The acceptance scenario of ``repro.stream`` lives here: seeded random
delta sequences (new items, evidence updates, retractions, threshold
edits) flow through the :class:`IncrementalEnactor` and every refreshed
result must serialize *byte-equal* to a full batch recompute of the
same data set — while touching only work proportional to the delta.
The resume test kills a stream mid-feed and restarts it against the
persisted cursor: no record is reprocessed and no drift event is
emitted twice.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import pytest

from repro.core.ispider import FILTER_ACTION
from repro.rdf import Q, URIRef
from repro.serving import wire
from repro.stream import (
    CusumDetector,
    Delta,
    EvidenceTable,
    EwmaDetector,
    IncrementalEnactor,
    JsonLinesSource,
    QueueSource,
    RollingWindows,
    StreamEngine,
    StreamError,
    StreamRecord,
    StreamStats,
    delta_from_document,
    delta_to_document,
)
from repro.stream.scenario import (
    build_stream_scenario,
    random_row,
    stream_item,
    synthetic_records,
)

#: The number of assertions in the Sec. 5.1 example view.
N_ASSERTIONS = 3


def result_bytes(result) -> bytes:
    """The canonical wire serialization the differential compares."""
    return wire.dumps(wire.encode_result(result))


class ListSource:
    """A record source over an in-memory list (test double)."""

    def __init__(self, records):
        self._records = list(records)

    def records(self):
        return iter(self._records)


# -- the delta model ---------------------------------------------------------


class TestDelta:
    def test_document_round_trip_preserves_fingerprint(self):
        delta = Delta(
            upserts={stream_item(0): {Q.Coverage: 0.5, Q.Masses: 12}},
            retractions=[(stream_item(1), Q.HitRatio), (stream_item(2), None)],
            thresholds={FILTER_ACTION: "HR > 40"},
        )
        document = delta_to_document(delta)
        # the document is plain JSON (string keys, JSON scalars)
        reparsed = delta_from_document(json.loads(json.dumps(document)))
        assert reparsed.fingerprint() == delta.fingerprint()
        assert reparsed.upserts == delta.upserts
        assert reparsed.retractions == delta.retractions
        assert reparsed.thresholds == delta.thresholds

    def test_fingerprint_ignores_mapping_order(self):
        one = Delta(upserts={stream_item(0): {Q.Coverage: 0.5, Q.Masses: 3}})
        other = Delta(upserts={stream_item(0): {Q.Masses: 3, Q.Coverage: 0.5}})
        assert one.fingerprint() == other.fingerprint()

    def test_fingerprint_distinguishes_values(self):
        one = Delta(upserts={stream_item(0): {Q.Coverage: 0.5}})
        other = Delta(upserts={stream_item(0): {Q.Coverage: 0.6}})
        assert one.fingerprint() != other.fingerprint()

    def test_touched_items_first_mention_first(self):
        delta = Delta(
            upserts={stream_item(1): {Q.Coverage: 0.1}},
            retractions=[(stream_item(0), None), (stream_item(1), Q.Masses)],
        )
        assert delta.touched_items() == [stream_item(1), stream_item(0)]

    def test_size_counts_cells_not_items(self):
        delta = Delta(
            upserts={stream_item(0): {Q.Coverage: 0.1, Q.Masses: 2}},
            retractions=[(stream_item(1), None)],
            thresholds={FILTER_ACTION: "HR > 1"},
        )
        assert delta.size() == 4
        assert not delta.is_empty()
        assert Delta().is_empty()

    @pytest.mark.parametrize(
        "document",
        [
            "not a mapping",
            {"upserts": []},
            {"retractions": {"item": "etype"}},
            {"retractions": [["only-item"]]},
            {"upserts": {"item": "not-a-mapping"}},
            {"thresholds": []},
        ],
    )
    def test_malformed_documents_raise_value_error(self, document):
        with pytest.raises(ValueError):
            delta_from_document(document)


class TestEvidenceTable:
    def test_apply_upserts_retractions_and_row_clears(self):
        table = EvidenceTable({stream_item(0): {Q.Coverage: 0.2, Q.Masses: 9}})
        table.apply(
            Delta(
                upserts={
                    stream_item(0): {Q.Coverage: 0.8},
                    stream_item(1): {Q.HitRatio: 0.4},
                },
                retractions=[(stream_item(0), Q.Masses)],
            )
        )
        assert table.get(stream_item(0)) == {Q.Coverage: 0.8}
        assert table.get(stream_item(1)) == {Q.HitRatio: 0.4}
        # a whole-item retraction clears the row but keeps the item
        table.apply(Delta(retractions=[(stream_item(1), None)]))
        assert table.get(stream_item(1)) == {}
        assert table.items() == [stream_item(0), stream_item(1)]

    def test_annotation_function_reads_live_rows(self):
        table = EvidenceTable()
        fn = table.annotation_function(
            Q["Imprint-output-annotation"], [Q.Coverage, Q.HitRatio]
        )
        item = stream_item(0)
        empty = fn.annotate([item], [Q.Coverage])
        assert empty.evidence_for(item) == {}
        table.set(item, Q.Coverage, 0.7)
        table.set(item, Q.Masses, 11)  # not requested, must be filtered
        refreshed = fn.annotate([item], [Q.Coverage])
        assert refreshed.evidence_for(item) == {Q.Coverage: 0.7}


# -- windows and drift detectors ---------------------------------------------


class TestRollingWindows:
    def test_tumbling_windows_close_on_watermark(self):
        windows = RollingWindows(size=10.0)
        assert windows.add(1.0, 0.2) == []
        assert windows.add(5.0, 0.4) == []
        closed = windows.add(10.0, 0.9)
        assert len(closed) == 1
        (window,) = closed
        assert (window.start, window.end, window.count) == (0.0, 10.0, 2)
        assert window.mean == pytest.approx(0.3)
        assert (window.minimum, window.maximum) == (0.2, 0.4)
        # the 10.0 sample landed in the next window
        (tail,) = windows.flush()
        assert (tail.start, tail.count, tail.mean) == (10.0, 1, 0.9)

    def test_sliding_windows_assign_samples_to_every_span(self):
        windows = RollingWindows(size=10.0, slide=5.0)
        windows.add(7.0, 1.0)  # spans [0,10) and [5,15)
        closed = windows.add(12.0, 2.0)  # closes [0,10)
        assert [(w.start, w.count) for w in closed] == [(0.0, 1)]
        remaining = windows.flush()
        assert [(w.start, w.count) for w in remaining] == [
            (5.0, 2),
            (10.0, 1),
        ]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RollingWindows(size=0)
        with pytest.raises(ValueError):
            RollingWindows(size=5.0, slide=6.0)

    def test_window_document_shape(self):
        windows = RollingWindows(size=2.0)
        windows.add(0.5, 0.5)
        (window,) = windows.add(2.0, 0.5)
        assert window.to_document() == {
            "start": 0.0,
            "end": 2.0,
            "count": 1,
            "mean": 0.5,
            "min": 0.5,
            "max": 0.5,
        }


class TestDriftDetectors:
    def test_ewma_fires_once_on_a_step_change(self):
        detector = EwmaDetector(alpha=0.3, threshold=3.0, warmup=3)
        samples = [0.8, 0.8, 0.8, 0.8, 0.8, 0.2, 0.21, 0.2]
        events = [detector.update(v) for v in samples]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        (event,) = fired
        assert event.kind == "ewma"
        assert event.direction == "down"
        assert event.sample_index == 5
        assert event.statistic > event.threshold

    def test_ewma_is_deterministic(self):
        samples = [0.7, 0.72, 0.69, 0.71, 0.3, 0.31, 0.7]
        runs = []
        for _ in range(2):
            detector = EwmaDetector(warmup=2)
            runs.append(
                [
                    e.to_document() if e else None
                    for e in (detector.update(v) for v in samples)
                ]
            )
        assert runs[0] == runs[1]

    def test_cusum_accumulates_and_reanchors(self):
        detector = CusumDetector(slack=0.02, limit=0.1, warmup=3)
        # warmup establishes the target around 0.8
        for value in (0.8, 0.8, 0.8):
            assert detector.update(value) is None
        # small sustained drop accumulates past the limit
        events = [detector.update(0.72) for _ in range(4)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        assert fired[0].kind == "cusum"
        assert fired[0].direction == "down"
        # after re-anchoring at 0.72 the same level is quiet again
        assert all(detector.update(0.72) is None for _ in range(5))

    def test_cusum_fires_upward_too(self):
        detector = CusumDetector(slack=0.01, limit=0.05, target=0.5)
        events = [detector.update(0.58) for _ in range(3)]
        fired = [e for e in events if e is not None]
        assert fired and fired[0].direction == "up"


# -- sources -----------------------------------------------------------------


class TestSources:
    def test_queue_source_drains_until_closed(self):
        source = QueueSource()
        records = synthetic_records(items=2, steps=2, seed=1)
        for record in records:
            source.put(record)
        source.close()
        assert [r.seq for r in source.records()] == [1, 2, 3]

    def test_jsonlines_round_trip(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        records = synthetic_records(items=3, steps=4, seed=2)
        assert JsonLinesSource.write(path, records) == 5
        replayed = list(JsonLinesSource(path).records())
        assert [r.seq for r in replayed] == [r.seq for r in records]
        assert [r.delta.fingerprint() for r in replayed] == [
            r.delta.fingerprint() for r in records
        ]

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        good = StreamRecord(seq=1, timestamp=1.0, delta=Delta())
        path.write_text(
            json.dumps(good.to_document()) + "\n\n" + '{"ts": 2.0}\n'
        )
        source = JsonLinesSource(path)
        iterator = source.records()
        assert next(iterator).seq == 1
        with pytest.raises(ValueError, match=r"feed\.jsonl:3.*'seq'"):
            next(iterator)

    def test_record_document_round_trip(self):
        record = StreamRecord(
            seq=7,
            timestamp=12.5,
            delta=Delta(upserts={stream_item(0): {Q.Coverage: 0.3}}),
        )
        parsed = StreamRecord.from_document(record.to_document())
        assert parsed == record


# -- cursors -----------------------------------------------------------------


class TestCursors:
    def test_save_load_round_trip(self, tmp_path):
        from repro.storage import CursorFile

        cursor = CursorFile(tmp_path, "alpha")
        assert cursor.load() is None
        cursor.save({"seq": 12, "view": "v"})
        assert cursor.load() == {"seq": 12, "view": "v"}
        cursor.save({"seq": 13, "view": "v"})
        assert cursor.load()["seq"] == 13
        cursor.clear()
        assert cursor.load() is None
        cursor.clear()  # idempotent

    def test_corrupt_cursor_reads_as_none(self, tmp_path):
        from repro.storage import CursorFile

        cursor = CursorFile(tmp_path, "beta")
        cursor.save({"seq": 5})
        # flip a payload byte: the CRC must catch it
        raw = cursor.path.read_text()
        cursor.path.write_text(raw.replace('"seq": 5', '"seq": 6'))
        assert cursor.load() is None
        # non-JSON garbage and truncation also read as "no cursor"
        cursor.path.write_text("not json at all")
        assert cursor.load() is None

    def test_cursor_files_globs_only_cursors(self, tmp_path):
        from repro.storage import CursorFile, cursor_files

        CursorFile(tmp_path, "b").save({"seq": 1})
        CursorFile(tmp_path, "a").save({"seq": 2})
        (tmp_path / "manifest.json").write_text("{}")
        names = [path.name for path in cursor_files(tmp_path)]
        assert names == ["stream-a.cursor", "stream-b.cursor"]
        assert cursor_files(tmp_path / "missing") == []

    def test_rejects_unsafe_names(self, tmp_path):
        from repro.storage import CursorFile

        with pytest.raises(ValueError):
            CursorFile(tmp_path, "../escape")


# -- the incremental differential --------------------------------------------


def make_enactor():
    scenario = build_stream_scenario()
    return scenario, IncrementalEnactor(scenario.view, feed=scenario.table)


def random_delta(rng, universe, next_index):
    """One random delta; may add items, update, retract, move thresholds."""
    kind = rng.random()
    upserts = {}
    retractions = []
    thresholds = {}
    if kind < 0.25 or not universe:
        # arrival of new items
        for _ in range(rng.randint(1, 3)):
            item = stream_item(next_index)
            next_index += 1
            universe.append(item)
            upserts[item] = random_row(rng)
    elif kind < 0.65:
        # evidence updates over a random subset (sometimes partial rows)
        for item in rng.sample(universe, rng.randint(1, min(4, len(universe)))):
            row = random_row(rng)
            if rng.random() < 0.3:
                keep = rng.sample(sorted(row, key=str), 2)
                row = {etype: row[etype] for etype in keep}
            upserts[item] = row
    elif kind < 0.9:
        # retractions: single evidence cells or whole rows
        for item in rng.sample(universe, rng.randint(1, min(3, len(universe)))):
            if rng.random() < 0.5:
                retractions.append((item, None))
            else:
                retractions.append(
                    (item, rng.choice([Q.Coverage, Q.HitRatio, Q.Masses]))
                )
    else:
        thresholds[FILTER_ACTION] = rng.choice(
            ["ScoreClass in q:high", "ScoreClass in q:low", "HR > 40", "HR > 10"]
        )
    return Delta(
        upserts=upserts, retractions=retractions, thresholds=thresholds
    ), next_index


class TestIncrementalDifferential:
    """Incremental apply vs. the full-recompute oracle, byte for byte."""

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_random_sequences_are_byte_equal_and_proportional(
        self, seed
    ):
        """50 random sequences x 6 deltas = 300 differential steps.

        Every step must (a) serialize byte-equal to the batch oracle
        and (b) re-annotate exactly the touched items — the cost side
        of the memoization contract.
        """
        rng = random.Random(1000 + seed)
        scenario, enactor = make_enactor()
        universe = []
        next_index = 0
        # bootstrap: a handful of items with full evidence
        bootstrap = {}
        for _ in range(rng.randint(4, 8)):
            item = stream_item(next_index)
            next_index += 1
            universe.append(item)
            bootstrap[item] = random_row(rng)
        deltas = [Delta(upserts=bootstrap)]
        for _ in range(5):
            delta, next_index = random_delta(rng, universe, next_index)
            deltas.append(delta)
        for delta in deltas:
            outcome = enactor.apply(delta)
            incremental = result_bytes(outcome.result)
            oracle = result_bytes(enactor.full_recompute())
            assert incremental == oracle, (
                f"seed {seed}: divergence on delta "
                f"{delta.fingerprint()[:12]} ({delta.to_document()})"
            )
            report = outcome.report
            # cost proportionality: only touched items are re-annotated,
            # and the memo accounting covers every (assertion, item) pair
            touched = len(delta.touched_items())
            assert report.reannotated_items == touched
            total = report.items_total
            assert report.memo_hits + report.memo_misses == (
                N_ASSERTIONS * total
            )
            # at most: the collection-scoped classifier over everything
            # plus the two item-local scores over the touched subset
            assert report.memo_misses <= total + 2 * touched

    def test_update_costs_stay_proportional_to_the_delta(self):
        """At a 10% delta ratio QA work is the dirty plus crossing items.

        Every QA re-evaluates the 4 re-drawn items; the collection-scoped
        classifier additionally relabels exactly the untouched items
        whose scores lie between an old and a new band threshold, which
        covers every untouched item whose class actually moved.
        """
        scenario, enactor = make_enactor()
        records = synthetic_records(items=40, steps=6, delta_ratio=0.1, seed=9)
        bootstrap = enactor.apply(records[0].delta)
        assert bootstrap.report.new_items == 40
        assert bootstrap.report.memo_hits == 0
        before = bootstrap.result
        for record in records[1:]:
            outcome = enactor.apply(record.delta)
            report = outcome.report
            assert report.items_total == 40
            assert report.reannotated_items == 4
            assert report.memo_hits + report.memo_misses == N_ASSERTIONS * 40
            assert report.memo_misses == N_ASSERTIONS * 4 + report.crossing_items
            assert report.qa_item_evaluations == report.memo_misses
            touched = set(record.delta.touched_items())
            moved = [
                item for item in enactor.items
                if item not in touched
                and before.tag_of(item, "ScoreClass")
                != outcome.result.tag_of(item, "ScoreClass")
            ]
            assert len(moved) <= report.crossing_items < 40 - 4
            before = outcome.result

    def test_a_one_percent_delta_evaluates_under_200_items_at_2000(self):
        """At 2,000 items a 1% delta costs O(delta), not O(collection)."""
        scenario, enactor = make_enactor()
        records = synthetic_records(
            items=2000, steps=4, delta_ratio=0.01, seed=3
        )
        enactor.apply(records[0].delta)
        for record in records[1:]:
            report = enactor.apply(record.delta).report
            assert report.reannotated_items == 20
            assert report.qa_item_evaluations < 200

    def test_retractions_and_unknown_items_match_the_oracle(self):
        scenario, enactor = make_enactor()
        items = {stream_item(i): random_row(random.Random(i)) for i in range(6)}
        enactor.apply(Delta(upserts=items))
        # retract one whole row, one single cell, and touch a brand-new
        # item with an empty upsert (membership without evidence)
        outcome = enactor.apply(
            Delta(
                upserts={stream_item(99): {}},
                retractions=[
                    (stream_item(0), None),
                    (stream_item(1), Q.HitRatio),
                ],
            )
        )
        assert result_bytes(outcome.result) == result_bytes(
            enactor.full_recompute()
        )
        assert stream_item(99) in enactor.items
        # the annotator retracted the pairs it no longer computes: both
        # sides of the differential read the same repository, so a
        # stale row there would go unnoticed by the byte comparison
        cache = scenario.framework.cache
        assert cache.lookup_all(stream_item(0)) == {}
        assert cache.lookup(stream_item(1), Q.HitRatio) is None
        assert cache.lookup_all(stream_item(1))

    def test_threshold_edit_rebuilds_the_filter_and_matches(self):
        scenario, enactor = make_enactor()
        rng = random.Random(5)
        enactor.apply(
            Delta(
                upserts={
                    stream_item(i): random_row(rng) for i in range(8)
                }
            )
        )
        before = enactor.apply(Delta()).result.surviving()
        outcome = enactor.apply(Delta(thresholds={FILTER_ACTION: "HR > 0"}))
        assert outcome.report.actions_rebuilt == [FILTER_ACTION]
        # "HR > 0" accepts everything with any hit ratio — strictly more
        # permissive than the class-based default
        assert len(outcome.result.surviving()) >= len(before)
        assert result_bytes(outcome.result) == result_bytes(
            enactor.full_recompute()
        )

    def test_threshold_edit_for_unknown_action_is_a_stream_error(self):
        scenario, enactor = make_enactor()
        with pytest.raises(StreamError, match="unknown action"):
            enactor.apply(Delta(thresholds={"no such action": "HR > 1"}))

    def test_invalid_condition_is_a_stream_error(self):
        scenario, enactor = make_enactor()
        with pytest.raises(StreamError, match="invalid condition"):
            enactor.apply(Delta(thresholds={FILTER_ACTION: ">>>"}))

    def test_empty_delta_is_all_memo_hits(self):
        scenario, enactor = make_enactor()
        rng = random.Random(11)
        enactor.apply(
            Delta(upserts={stream_item(i): random_row(rng) for i in range(5)})
        )
        report = enactor.apply(Delta()).report
        assert report.reannotated_items == 0
        assert report.memo_misses == 0
        assert report.memo_hits == N_ASSERTIONS * 5
        assert report.annotators_fired == 0

    def test_fused_assertions_fire_once_per_delta(self):
        """A fused processor is one firing unit; memos stay per member."""
        from tests.test_compiler_ir import PUSHDOWN_XML, Counter

        scenario = build_stream_scenario()
        view = scenario.framework.quality_view(PUSHDOWN_XML)
        assert "HR score + HR score b" in view.compile().processors
        counter = Counter()
        scenario.framework.services.by_name("HRScore").fault_injector = counter
        enactor = IncrementalEnactor(view, feed=scenario.table)
        records = synthetic_records(items=20, steps=3, delta_ratio=0.1, seed=6)
        for record in records:
            counter.n = 0
            outcome = enactor.apply(record.delta)
            assert counter.n == 1
            assert outcome.report.assertions_fired == [
                "HR score", "HR score b", "HR MC score"
            ]
            assert result_bytes(outcome.result) == result_bytes(
                enactor.full_recompute()
            )

    def test_gated_plans_are_refused(self):
        """A filter gate hides items from later QAs; no memo can cover it."""
        from tests.test_compiler_ir import OBSERVED, PUSHDOWN_XML

        scenario = build_stream_scenario()
        view = scenario.framework.quality_view(PUSHDOWN_XML)
        view.compile(options=OBSERVED)
        with pytest.raises(StreamError, match="filter gate"):
            IncrementalEnactor(view, feed=scenario.table)

    def test_degraded_firings_match_the_oracle(self):
        """Incremental firings honour the view's resilience policy.

        With every HRScore invocation failing and ``on_failure="skip"``,
        the batch path degrades the QA and carries on; the incremental
        path fires the same compiled processors through the same core,
        so it must degrade identically instead of raising.
        """
        from repro.resilience import (
            FaultInjector,
            ResilienceConfig,
            ResilientInvoker,
        )

        scenario = build_stream_scenario()
        config = ResilienceConfig(
            max_attempts=1, on_failure="skip", breaker_threshold=0
        )
        scenario.view.with_resilience(ResilientInvoker(config))
        FaultInjector(seed=1).plan("HRScore", fault_rate=1.0).attach_registry(
            scenario.framework.services
        )
        enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
        records = synthetic_records(items=20, steps=3, delta_ratio=0.1, seed=4)
        for record in records:
            outcome = enactor.apply(record.delta)
            assert result_bytes(outcome.result) == result_bytes(
                enactor.full_recompute()
            )
            amap = outcome.result.annotation_map
            # the failing QA contributed no tag; the others still did
            assert all(
                amap.get_tag(item, "HR") is None for item in amap.items()
            )
            assert all(
                amap.get_tag(item, "ScoreClass") is not None
                for item in amap.items()
            )

    def test_threshold_deltas_keep_the_view_policy(self):
        """A threshold delta recompiles the view; the policy stays.

        The policy lives on the view, not on its compiled plan, so the
        recompiled actions and the ``full_recompute()`` oracle fire
        under it exactly as the earlier deltas did.
        """
        from repro.resilience import (
            FaultInjector,
            ResilienceConfig,
            ResilientInvoker,
        )

        scenario = build_stream_scenario()
        config = ResilienceConfig(
            max_attempts=1, on_failure="skip", breaker_threshold=0
        )
        scenario.view.with_resilience(ResilientInvoker(config))
        FaultInjector(seed=1).plan("HRScore", fault_rate=1.0).attach_registry(
            scenario.framework.services
        )
        enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
        for record in synthetic_records(items=20, steps=1, seed=4):
            enactor.apply(record.delta)
        outcome = enactor.apply(Delta(thresholds={FILTER_ACTION: "HR > 0"}))
        assert outcome.report.actions_rebuilt == [FILTER_ACTION]
        assert result_bytes(outcome.result) == result_bytes(
            enactor.full_recompute()
        )


def bootstrap_enactor(n_items=30, seed=17, xml=None):
    """An enactor over ``n_items`` random rows (optionally another view)."""
    scenario = build_stream_scenario()
    view = scenario.view if xml is None else scenario.framework.quality_view(xml)
    enactor = IncrementalEnactor(view, feed=scenario.table)
    rng = random.Random(seed)
    rows = {stream_item(i): random_row(rng) for i in range(n_items)}
    check_step(enactor, Delta(upserts=rows))
    return scenario, enactor


def check_step(enactor, delta):
    """Apply one delta; it must serialize byte-equal to the oracle."""
    outcome = enactor.apply(delta)
    assert result_bytes(outcome.result) == result_bytes(
        enactor.full_recompute()
    ), delta.to_document()
    return outcome


def classes(result):
    return {item: result.tag_of(item, "ScoreClass") for item in result.items}


SPLITTER_ACTION = """
  <action name="triage">
    <splitter>
      <group name="strong"><condition>ScoreClass in q:high</condition></group>
      <group name="fair"><condition>HR &gt; 40</condition></group>
    </splitter>
  </action>
</QualityView>"""


class TestIncrementalRelabelling:
    """Seeded cases for the bisected relabel and the patched routing."""

    def test_an_upsert_moves_an_item_across_both_bands(self):
        scenario, enactor = bootstrap_enactor()
        item = stream_item(3)
        high = {Q.Coverage: 0.95, Q.HitRatio: 0.99}
        low = {Q.Coverage: 0.01, Q.HitRatio: 0.02}
        outcome = check_step(enactor, Delta(upserts={item: high}))
        assert outcome.result.tag_of(item, "ScoreClass") == Q.high
        outcome = check_step(enactor, Delta(upserts={item: low}))
        assert outcome.result.tag_of(item, "ScoreClass") == Q.low

    def test_a_threshold_shift_relabels_untouched_items(self):
        scenario, enactor = bootstrap_enactor()
        before = classes(enactor.apply(Delta()).result)
        # five items jump to the top: avg + stddev moves up past
        # several untouched items, which must drop from high to mid
        jump = {
            stream_item(i): {Q.Coverage: 0.99, Q.HitRatio: 0.99}
            for i in range(5)
        }
        outcome = check_step(enactor, Delta(upserts=jump))
        after = classes(outcome.result)
        moved = [
            item for item in before
            if item not in jump and before[item] != after[item]
        ]
        assert moved
        assert len(moved) <= outcome.report.crossing_items
        assert outcome.report.crossing_items < len(before) - len(jump)

    def test_scores_becoming_none_and_coming_back(self):
        scenario, enactor = bootstrap_enactor()
        item = stream_item(7)
        outcome = check_step(
            enactor, Delta(retractions=[(item, Q.HitRatio)])
        )
        assert outcome.result.tag_of(item, "ScoreClass") is None
        outcome = check_step(
            enactor, Delta(upserts={item: {Q.HitRatio: 0.5}})
        )
        assert outcome.result.tag_of(item, "ScoreClass") is not None
        # every score gone, then one back: thresholds appear from none
        everything = [(stream_item(i), Q.Coverage) for i in range(30)]
        outcome = check_step(enactor, Delta(retractions=everything))
        assert not any(classes(outcome.result).values())
        outcome = check_step(
            enactor, Delta(upserts={item: {Q.Coverage: 0.4}})
        )
        assert classes(outcome.result)[item] == Q.mid

    def test_whole_row_retractions_and_reupserts(self):
        scenario, enactor = bootstrap_enactor()
        rows = [stream_item(i) for i in (0, 4, 9, 29)]
        outcome = check_step(
            enactor, Delta(retractions=[(item, None) for item in rows])
        )
        for item in rows:
            assert outcome.result.annotation_map.evidence_for(item) == {}
        rng = random.Random(23)
        check_step(
            enactor, Delta(upserts={item: random_row(rng) for item in rows})
        )

    @pytest.mark.parametrize("threshold_first", [True, False])
    def test_threshold_and_upsert_sequences(self, threshold_first):
        scenario, enactor = bootstrap_enactor()
        rng = random.Random(29)
        upsert = Delta(
            upserts={stream_item(i): random_row(rng) for i in (2, 5, 11)}
        )
        threshold = Delta(thresholds={FILTER_ACTION: "HR > 40"})
        steps = [threshold, upsert] if threshold_first else [upsert, threshold]
        for delta in steps + [Delta(thresholds={FILTER_ACTION: "ScoreClass in q:low"})]:
            outcome = check_step(enactor, delta)
            assert outcome.report.actions_rebuilt == list(delta.thresholds)
        # both at once
        check_step(
            enactor,
            Delta(
                upserts={stream_item(1): random_row(rng)},
                thresholds={FILTER_ACTION: "HR > 10"},
            ),
        )

    def test_a_splitter_routes_only_changed_items(self, monkeypatch):
        from repro.core.ispider import example_quality_view_xml
        from repro.process.actions import SplitterAction

        xml = example_quality_view_xml().replace(
            "</QualityView>", SPLITTER_ACTION
        )
        scenario, enactor = bootstrap_enactor(n_items=40, xml=xml)
        routed = []
        execute = SplitterAction.execute

        def counting(self, items, amap, variable_bindings=None):
            routed.append(len(items))
            return execute(self, items, amap, variable_bindings)

        monkeypatch.setattr(SplitterAction, "execute", counting)
        rng = random.Random(31)
        for step in range(6):
            routed.clear()
            chosen = rng.sample(range(40), 3)
            delta = Delta(
                upserts={stream_item(i): random_row(rng) for i in chosen},
                retractions=[(stream_item((step * 7) % 40), Q.HitRatio)],
            )
            outcome = enactor.apply(delta)
            assert routed and max(routed) <= (
                len(delta.touched_items()) + outcome.report.crossing_items
            )
            assert result_bytes(outcome.result) == result_bytes(
                enactor.full_recompute()
            )
            groups = outcome.result.groups["triage"]
            assert set(groups) == {"strong", "fair", "default"}

    @pytest.mark.parametrize("failing", ["HRScore", "PIScoreClassifier"])
    def test_an_apply_that_raises_is_repaired_by_the_next(self, failing):
        """A failed apply's items are re-derived in full by the next one."""
        from repro.workflow.enactor import EnactmentError

        class Once:
            armed = True

            def on_invocation(self, service):
                if self.armed:
                    self.armed = False
                    raise RuntimeError("injected")

        scenario, enactor = bootstrap_enactor()
        service = scenario.framework.services.by_name(failing)
        service.fault_injector = Once()
        rng = random.Random(37)
        jump = {stream_item(i): random_row(rng) for i in (1, 2, 3)}
        jump[stream_item(30)] = random_row(rng)
        with pytest.raises(EnactmentError):
            enactor.apply(
                Delta(upserts=jump, thresholds={FILTER_ACTION: "HR > 30"})
            )
        check_step(enactor, Delta())
        check_step(enactor, Delta(upserts={stream_item(4): random_row(rng)}))

    def test_a_failing_classifier_takes_the_full_refire(self):
        """Under ``skip`` a degraded relabel falls back to a full firing.

        While the classifier keeps failing, every firing covers the
        whole collection (a partial degraded firing is no verdict); once
        it recovers, the first firing is a full one and the results
        match the oracle again.
        """
        from repro.resilience import (
            FaultInjector,
            ResilienceConfig,
            ResilientInvoker,
        )

        scenario = build_stream_scenario()
        scenario.view.with_resilience(
            ResilientInvoker(
                ResilienceConfig(
                    max_attempts=1, on_failure="skip", breaker_threshold=0
                )
            )
        )
        classifier = scenario.framework.services.by_name("PIScoreClassifier")
        FaultInjector(seed=1).plan(
            "PIScoreClassifier", fault_rate=1.0
        ).attach_registry(scenario.framework.services)
        enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
        records = synthetic_records(items=20, steps=6, delta_ratio=0.1, seed=4)
        for index, record in enumerate(records):
            if index == 4:
                classifier.fault_injector = None  # the service recovers
            outcome = check_step(enactor, record.delta)
            scored = classes(outcome.result)
            if index < 4:
                assert not any(scored.values())
                if index:
                    # two item-local QAs over the 2 dirty items, the
                    # classifier over all 20
                    assert outcome.report.qa_item_evaluations == 2 * 2 + 20
            else:
                assert all(scored.values())
        assert outcome.report.qa_item_evaluations < 2 * 2 + 20

    @pytest.mark.parametrize("policy", [None, "skip"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "n/a"])
    def test_an_unusable_score_is_labelled_as_the_batch_path_does(
        self, policy, bad
    ):
        """A non-finite or non-numeric hitRatio, then a good one.

        A nan or infinite score makes the bands nan (every scored item
        ``mid``); a value that cannot be scored makes the classifier's
        firing fail under the view's policy.  Either way every step
        matches the oracle, and the next delta applies.
        """
        from repro.resilience import ResilienceConfig, ResilientInvoker
        from repro.workflow.enactor import EnactmentError

        scenario, enactor = bootstrap_enactor()
        if policy is not None:
            scenario.view.with_resilience(
                ResilientInvoker(
                    ResilienceConfig(
                        max_attempts=1, on_failure=policy, breaker_threshold=0
                    )
                )
            )
        item = stream_item(6)
        bad_delta = Delta(upserts={item: {Q.HitRatio: bad}})
        if isinstance(bad, str) and policy is None:
            with pytest.raises(EnactmentError):
                enactor.apply(bad_delta)
            with pytest.raises(EnactmentError):
                enactor.full_recompute()
        else:
            outcome = check_step(enactor, bad_delta)
            labels = classes(outcome.result)
            if isinstance(bad, float):
                assert set(labels.values()) == {Q.mid}
            else:
                assert not any(labels.values())
        rng = random.Random(41)
        outcome = check_step(
            enactor, Delta(upserts={item: {Q.HitRatio: 0.5}})
        )
        assert {Q.low, Q.high} <= set(classes(outcome.result).values())
        check_step(enactor, Delta(upserts={stream_item(8): random_row(rng)}))


# -- the engine: windows, drift, resume --------------------------------------


class TestStreamEngine:
    def test_drift_fires_on_a_degraded_tail(self):
        scenario, enactor = make_enactor()
        records = synthetic_records(
            items=20, steps=12, delta_ratio=0.3, seed=4,
            drift_after=6, drift_quality=0.2,
        )
        engine = StreamEngine(
            enactor,
            windows=RollingWindows(5.0),
            detectors=[
                EwmaDetector(warmup=3),
                CusumDetector(warmup=3, slack=0.01, limit=0.05),
            ],
        )
        stats = engine.run(ListSource(records))
        assert stats.processed == len(records)
        assert stats.drift_events >= 1
        assert stats.windows_closed >= 1
        assert stats.watermark == records[-1].seq

    def test_resume_skips_processed_records_and_duplicates_nothing(
        self, tmp_path
    ):
        from repro.storage import CursorFile

        records = synthetic_records(
            items=12, steps=8, delta_ratio=0.25, seed=3,
            drift_after=4, drift_quality=0.2,
        )
        detectors = lambda: [  # noqa: E731 - tiny factory
            EwmaDetector(warmup=2, threshold=2.0),
            CusumDetector(warmup=2, slack=0.01, limit=0.05),
        ]

        # first run: process a prefix, then "crash"
        scenario1, enactor1 = make_enactor()
        engine1 = StreamEngine(
            enactor1,
            detectors=detectors(),
            cursor=CursorFile(tmp_path, "resume-test"),
        )
        first_drift = []
        stats1 = engine1.run(
            ListSource(records[:6]),
            on_step=lambda step: first_drift.extend(
                (step.record.seq, e.detector) for e in step.drift_events
            ),
        )
        assert stats1.processed == 6
        assert stats1.watermark == 6

        # second run: fresh process, same cursor, full feed
        scenario2, enactor2 = make_enactor()
        engine2 = StreamEngine(
            enactor2,
            detectors=detectors(),
            cursor=CursorFile(tmp_path, "resume-test"),
        )
        assert engine2.resumed
        assert engine2.watermark == 6
        second_drift = []
        stats2 = engine2.run(
            ListSource(records),
            on_step=lambda step: second_drift.extend(
                (step.record.seq, e.detector) for e in step.drift_events
            ),
        )
        # no record is reprocessed, the skipped prefix is replayed into
        # the feed, and one bootstrap re-introduces the full data set
        assert stats2.skipped == 6
        assert stats2.replayed == 6
        assert stats2.processed == len(records) - 6
        assert stats2.bootstrapped_items == 12
        # no duplicate drift: every event belongs to a live record of
        # its own run, so the two runs' sequence numbers are disjoint
        assert all(seq <= 6 for seq, _ in first_drift)
        assert all(seq > 6 for seq, _ in second_drift)
        # the resumed state is byte-equal to a batch run over the feed
        assert result_bytes(
            enactor2.apply(Delta()).result
        ) == result_bytes(enactor2.full_recompute())
        assert CursorFile(tmp_path, "resume-test").load()["seq"] == len(
            records
        )

    def test_restart_over_fully_consumed_feed_is_all_skips(self, tmp_path):
        from repro.storage import CursorFile

        records = synthetic_records(items=6, steps=4, seed=8)
        scenario1, enactor1 = make_enactor()
        engine1 = StreamEngine(
            enactor1, cursor=CursorFile(tmp_path, "done")
        )
        engine1.run(ListSource(records))

        scenario2, enactor2 = make_enactor()
        engine2 = StreamEngine(
            enactor2,
            detectors=[EwmaDetector(warmup=1, threshold=0.1)],
            cursor=CursorFile(tmp_path, "done"),
        )
        stats = engine2.run(ListSource(records))
        assert stats.processed == 0
        assert stats.skipped == len(records)
        assert stats.drift_events == 0  # nothing re-announced

    def test_queue_source_feeds_the_engine(self):
        scenario, enactor = make_enactor()
        engine = StreamEngine(enactor)
        source = QueueSource()
        for record in synthetic_records(items=4, steps=2, seed=6):
            source.put(record)
        source.close()
        stats = engine.run(source)
        assert stats.processed == 3
        assert 0.0 <= stats.last_signal <= 1.0


# -- the serving surface -----------------------------------------------------


def _serving_request(url, method="GET", body=None, headers=None):
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    request = Request(url, data=body, method=method)
    for header, value in (headers or {}).items():
        request.add_header(header, value)
    try:
        with urlopen(request, timeout=60) as response:
            raw, status = response.read(), response.status
            response_headers = dict(response.headers)
    except HTTPError as error:
        raw, status = error.read(), error.code
        response_headers = dict(error.headers)
    return status, json.loads(raw.decode("utf-8")), response_headers


def _start_stream_server(quota_rate=500.0, quota_burst=500.0):
    from repro.serving import QualityViewServer, ServingConfig

    scenario = build_stream_scenario()
    runtime = scenario.framework.runtime(
        workers=1, queue_size=8, queue_policy="reject", name="stream-serving"
    )
    config = ServingConfig(
        port=0, quota_rate=quota_rate, quota_burst=quota_burst
    )
    server = QualityViewServer(scenario.framework, runtime, config=config)
    return scenario, runtime, server


@pytest.fixture()
def delta_server():
    from repro.core.ispider import example_quality_view_xml

    scenario, runtime, server = _start_stream_server()
    with server as running:
        running.serve_in_background()
        status, _, _ = _serving_request(
            f"{running.url}/views/stream-view",
            "PUT",
            example_quality_view_xml().encode("utf-8"),
            {"Content-Type": "application/xml", "X-Tenant": "streamer"},
        )
        assert status == 201
        yield running, scenario
    runtime.shutdown(drain=True)


def _delta_body(delta: Delta) -> bytes:
    return json.dumps({"delta": delta_to_document(delta)}).encode("utf-8")


class TestServingDeltas:
    def test_post_delta_enacts_incrementally_with_session_memo(
        self, delta_server
    ):
        server, scenario = delta_server
        rng = random.Random(21)
        rows = {stream_item(i): random_row(rng) for i in range(10)}
        # the server-side enactor treats upserts as invalidation hints:
        # the annotator reads the scenario's table, so populate it first
        scenario.table.apply(Delta(upserts=rows))
        status, document, _ = _serving_request(
            f"{server.url}/views/stream-view/deltas",
            "POST",
            _delta_body(Delta(upserts=rows)),
            {"X-Tenant": "streamer"},
        )
        assert status == 200
        assert document["view"] == "stream-view"
        assert document["report"]["items_total"] == 10
        assert document["report"]["new_items"] == 10
        assert document["result"]["items"]
        assert document["delta"]["size"] == sum(len(r) for r in rows.values())

        # the session memo persists: a second, smaller delta reuses it
        touch = {stream_item(0): random_row(rng)}
        scenario.table.apply(Delta(upserts=touch))
        status, second, _ = _serving_request(
            f"{server.url}/views/stream-view/deltas",
            "POST",
            _delta_body(Delta(upserts=touch)),
            {"X-Tenant": "streamer"},
        )
        assert status == 200
        assert second["report"]["items_total"] == 10
        assert second["report"]["reannotated_items"] == 1
        assert second["report"]["memo_hits"] > 0

    def test_reregistration_drops_the_stream_session(self, delta_server):
        from repro.core.ispider import example_quality_view_xml

        server, scenario = delta_server
        rng = random.Random(22)
        rows = {stream_item(i): random_row(rng) for i in range(4)}
        scenario.table.apply(Delta(upserts=rows))
        status, first, _ = _serving_request(
            f"{server.url}/views/stream-view/deltas",
            "POST",
            _delta_body(Delta(upserts=rows)),
        )
        assert status == 200 and first["report"]["items_total"] == 4
        # re-register with a different condition: new fingerprint
        status, _, _ = _serving_request(
            f"{server.url}/views/stream-view",
            "PUT",
            example_quality_view_xml("HR > 40").encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        assert status == 200
        touch = {stream_item(0): {}}
        status, after, _ = _serving_request(
            f"{server.url}/views/stream-view/deltas",
            "POST",
            _delta_body(Delta(upserts=touch)),
        )
        assert status == 200
        # the memo was reset: only the touched item is tracked now
        assert after["report"]["items_total"] == 1

    def test_malformed_bodies_answer_422(self, delta_server):
        server, _ = delta_server
        for body in (
            b'{"no_delta": 1}',
            b'{"delta": {"retractions": [["only-item"]]}}',
            b'{"delta": {"thresholds": {"no such action": "HR > 1"}}}',
        ):
            status, document, _ = _serving_request(
                f"{server.url}/views/stream-view/deltas", "POST", body
            )
            assert status == 422, body
            assert document["error"] == "invalid_delta"

    def test_unknown_view_answers_404(self, delta_server):
        server, _ = delta_server
        status, document, _ = _serving_request(
            f"{server.url}/views/nope/deltas", "POST", _delta_body(Delta())
        )
        assert status == 404
        assert document["error"] == "unknown_view"

    def test_a_delta_before_any_enact_fires_under_the_runtime_policy(self):
        from repro.core.ispider import example_quality_view_xml
        from repro.resilience import FaultInjector, ResilienceConfig
        from repro.serving import QualityViewServer, ServingConfig

        scenario = build_stream_scenario()
        FaultInjector(seed=1).plan("HRScore", fault_rate=1.0).attach_registry(
            scenario.framework.services
        )
        runtime = scenario.framework.runtime(
            workers=1,
            resilience=ResilienceConfig(
                max_attempts=1, on_failure="skip", breaker_threshold=0
            ),
        )
        server = QualityViewServer(
            scenario.framework, runtime,
            config=ServingConfig(port=0, quota_rate=None),
        )
        try:
            status, _, _, _ = server.dispatch(
                "PUT", "/views/v", example_quality_view_xml().encode("utf-8"),
                {"Content-Type": "application/xml"},
            )
            assert status == 201
            rng = random.Random(23)
            rows = {stream_item(i): random_row(rng) for i in range(6)}
            scenario.table.apply(Delta(upserts=rows))
            # no /enact has run: the session alone must carry the policy
            status, _, payload, _ = server.dispatch(
                "POST", "/views/v/deltas", _delta_body(Delta(upserts=rows)),
                {},
            )
            assert status == 200, payload
            entries = json.loads(payload)["result"]["annotation_map"]
            assert len(entries) == 6
            # the failing QA degraded; the others still tagged
            assert all("HR" not in e["tags"] for e in entries.values())
            assert all("ScoreClass" in e["tags"] for e in entries.values())
        finally:
            runtime.shutdown(drain=True)

    def test_deltas_share_the_tenant_quota(self):
        from repro.core.ispider import example_quality_view_xml

        scenario, runtime, server = _start_stream_server(
            quota_rate=0.001, quota_burst=2.0
        )
        with server as running:
            running.serve_in_background()
            status, _, _ = _serving_request(
                f"{running.url}/views/metered",
                "PUT",
                example_quality_view_xml().encode("utf-8"),
                {"Content-Type": "application/xml"},
            )
            assert status == 201
            headers = {"X-Tenant": "metered-tenant"}
            for _ in range(2):
                status, _, _ = _serving_request(
                    f"{running.url}/views/metered/deltas",
                    "POST",
                    _delta_body(Delta()),
                    headers,
                )
                assert status == 200
            status, document, response_headers = _serving_request(
                f"{running.url}/views/metered/deltas",
                "POST",
                _delta_body(Delta()),
                headers,
            )
            assert status == 429
            assert document["error"] == "quota_exhausted"
            assert "Retry-After" in response_headers
        runtime.shutdown(drain=True)


# -- the CLI -----------------------------------------------------------------


class TestStreamCli:
    def run_cli(self, argv):
        from repro.cli import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(argv)
        return status, buffer.getvalue()

    def test_synthetic_stream_verifies_byte_equal(self):
        status, output = self.run_cli(
            [
                "stream", "--items", "10", "--steps", "4",
                "--delta-ratio", "0.2", "--seed", "13", "--verify",
            ]
        )
        assert status == 0
        assert "verification: 5/5 byte-equal" in output
        assert "MISMATCH" not in output

    def test_emit_then_consume_a_feed_file_with_resume(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        status, output = self.run_cli(
            [
                "stream", "--emit-events", str(feed),
                "--items", "8", "--steps", "6", "--seed", "3",
            ]
        )
        assert status == 0
        assert "wrote 7 records" in output

        cursor_dir = tmp_path / "cursors"
        status, output = self.run_cli(
            [
                "stream", "--events", str(feed),
                "--cursor-dir", str(cursor_dir),
                "--max-records", "4",
            ]
        )
        assert status == 0
        assert "4 processed" in output

        status, output = self.run_cli(
            [
                "stream", "--events", str(feed),
                "--cursor-dir", str(cursor_dir), "--verify",
            ]
        )
        assert status == 0
        assert "resumed from persisted watermark seq 4" in output
        assert "3 processed, 4 skipped" in output
        assert "verification: 3/3 byte-equal" in output

    def test_store_info_lists_cursors(self, tmp_path):
        from repro.storage import CursorFile, PagedBackend

        directory = tmp_path / "store"
        backend = PagedBackend(str(directory))
        backend.close()
        CursorFile(directory, "tail").save({"seq": 41, "stream": "tail"})
        (directory / "stream-broken.cursor").write_text("garbage")
        status, output = self.run_cli(["store", "info", str(directory)])
        assert status == 0
        description = json.loads(output)
        cursors = description["stream_cursors"]
        assert cursors["stream-tail.cursor"]["seq"] == 41
        assert cursors["stream-broken.cursor"] == "unreadable"

    def test_bad_delta_ratio_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["stream", "--delta-ratio", "2.0"]) == 2
        assert "--delta-ratio" in capsys.readouterr().err
