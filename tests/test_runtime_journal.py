"""Checkpoint journal: record, verified load, resume, self-healing."""

import json

import pytest

from repro.analysis.sweep import sweep
from repro.runtime import (
    RetryPolicy,
    SweepJournal,
    atomic_write,
    compact_journal,
    sweep_fingerprint,
    use_runtime,
)


class TestSweepFingerprint:
    def test_stable_across_calls(self):
        a = sweep_fingerprint("label", [1, 2, 3])
        assert a == sweep_fingerprint("label", [1, 2, 3])

    def test_sensitive_to_label_and_items(self):
        base = sweep_fingerprint("label", [1, 2, 3])
        assert sweep_fingerprint("other", [1, 2, 3]) != base
        assert sweep_fingerprint("label", [1, 2]) != base

    def test_unfingerprintable_items_raise(self):
        with pytest.raises(TypeError):
            sweep_fingerprint("label", [lambda x: x])


class TestSweepJournal:
    def test_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path, "abc123", n_items=3)
        journal.record(0, {"value": 1.5})
        journal.record(2, (4, 5))
        journal.close()

        loaded = SweepJournal(tmp_path, "abc123", n_items=3, resume=True).load()
        assert loaded == {0: {"value": 1.5}, 2: (4, 5)}

    def test_torn_line_is_skipped_not_raised(self, tmp_path):
        journal = SweepJournal(tmp_path, "torn", n_items=2)
        journal.record(0, "good")
        journal.close()
        with journal.path.open("a") as handle:
            handle.write('{"kind": "cell", "index": 1, "sha": "tr')  # SIGINT mid-write

        reloaded = SweepJournal(tmp_path, "torn", n_items=2, resume=True)
        assert reloaded.load() == {0: "good"}
        assert reloaded.corrupt_lines == 1

    def test_checksum_mismatch_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path, "sum", n_items=1)
        journal.record(0, "payload")
        journal.close()
        lines = journal.path.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["sha"] = "0" * 64
        journal.path.write_text("\n".join(lines[:-1] + [json.dumps(entry)]) + "\n")

        reloaded = SweepJournal(tmp_path, "sum", n_items=1, resume=True)
        assert reloaded.load() == {}
        assert reloaded.corrupt_lines == 1

    def test_out_of_range_index_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path, "range", n_items=5)
        journal.record(4, "ok")
        journal.close()
        # The same file interpreted as a smaller sweep rejects index 4.
        reloaded = SweepJournal(tmp_path, "range", n_items=2, resume=True)
        assert reloaded.load() == {}
        assert reloaded.corrupt_lines == 1

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = SweepJournal(tmp_path, "trunc", n_items=2)
        journal.record(0, "old")
        journal.close()
        fresh = SweepJournal(tmp_path, "trunc", n_items=2, resume=False)
        fresh.record(1, "new")
        fresh.close()
        loaded = SweepJournal(tmp_path, "trunc", n_items=2, resume=True).load()
        assert loaded == {1: "new"}


class TestAtomicWrite:
    def test_publishes_bytes_and_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "file.bin"
        atomic_write(target, b"first")
        atomic_write(target, b"second")
        assert target.read_bytes() == b"second"
        assert sorted(p.name for p in target.parent.iterdir()) == ["file.bin"]

    def test_failed_write_keeps_old_file_and_removes_temp(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write(target, b"old")
        with pytest.raises(TypeError):
            atomic_write(target, "not bytes")  # type: ignore[arg-type]
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


class TestCompaction:
    def _journal(self, tmp_path, sweep_id="compact", n_items=4):
        return SweepJournal(tmp_path, sweep_id, n_items=n_items)

    def test_superseded_records_are_dropped_load_unchanged(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(0, "first")
        journal.record(1, "only")
        journal.record(0, "second")  # a retry re-recorded cell 0
        journal.record(0, "third")
        journal.close()

        before = SweepJournal(tmp_path, "compact", n_items=4, resume=True).load()
        stats = compact_journal(journal.path)
        after = SweepJournal(tmp_path, "compact", n_items=4, resume=True).load()

        assert after == before == {0: "third", 1: "only"}
        assert stats.dropped_superseded == 2
        assert stats.lines_after == 3  # header + 2 cells
        assert stats.bytes_reclaimed > 0

    def test_event_and_corrupt_lines_are_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(0, "keep")
        journal.close()
        with journal.path.open("a") as handle:
            handle.write(
                '{"kind": "event", "event": "steal", "index": 0, '
                '"worker": "w1"}\n'
            )
            handle.write("totally not json\n")
            handle.write('{"kind": "cell", "index": 1, "sha": "tr')  # torn

        stats = compact_journal(journal.path)
        assert stats.dropped_events == 1
        assert stats.dropped_corrupt == 2
        reloaded = SweepJournal(tmp_path, "compact", n_items=4, resume=True)
        assert reloaded.load() == {0: "keep"}
        assert reloaded.corrupt_lines == 0  # compaction healed the file

    def test_failed_record_kept_unless_superseded(self, tmp_path):
        import json as json_module

        journal = self._journal(tmp_path)
        journal.record(0, "ok")
        journal.close()
        with journal.path.open("a") as handle:
            handle.write(json_module.dumps(
                {"kind": "failed", "index": 1, "error": "boom"}
            ) + "\n")
            handle.write(json_module.dumps(
                {"kind": "failed", "index": 0, "error": "stale failure"}
            ) + "\n")

        compact_journal(journal.path)
        lines = [
            json_module.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        kinds = [(entry["kind"], entry.get("index")) for entry in lines]
        # Cell 0 succeeded, so its failure line is dropped; cell 1 has
        # only a failure, which is preserved.
        assert ("failed", 1) in kinds
        assert ("failed", 0) not in kinds
        assert ("cell", 0) in kinds

    def test_clean_journal_left_untouched(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(0, "a")
        journal.record(1, "b")
        journal.close()
        raw = journal.path.read_bytes()
        mtime = journal.path.stat().st_mtime_ns

        stats = compact_journal(journal.path)
        assert stats.bytes_reclaimed == 0
        assert journal.path.read_bytes() == raw
        assert journal.path.stat().st_mtime_ns == mtime  # no rewrite at all

    def test_header_survives_compaction(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(0, "x")
        journal.record(0, "y")
        journal.close()
        compact_journal(journal.path)
        first = json.loads(journal.path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["sweep"] == "compact"


class TestSweepResume:
    def test_resumed_sweep_recomputes_zero_cells(self, tmp_path):
        calls = []

        def cell(x):
            calls.append(x)
            return x * x

        with use_runtime(journal_dir=tmp_path) as first:
            assert sweep([1, 2, 3], cell) == [1, 4, 9]
        assert first.journal_stats.recorded == 3
        assert calls == [1, 2, 3]

        calls.clear()
        with use_runtime(journal_dir=tmp_path, resume=True) as second:
            assert sweep([1, 2, 3], cell) == [1, 4, 9]
        assert calls == []  # acceptance: zero recomputation
        assert second.journal_stats.resumed == 3

    def test_partial_journal_resumes_only_missing_cells(self, tmp_path):
        calls = []

        def cell(x):
            calls.append(x)
            return x + 100

        # Simulate an interrupted run: journal holds cells 0 and 2 only.
        from repro.runtime.supervisor import _sweep_label

        sid = sweep_fingerprint(_sweep_label(cell), [1, 2, 3])
        journal = SweepJournal(tmp_path, sid, n_items=3)
        journal.record(0, 101)
        journal.record(2, 103)
        journal.close()

        with use_runtime(journal_dir=tmp_path, resume=True) as ctx:
            result = sweep([1, 2, 3], cell)
        assert result == [101, 102, 103]
        assert ctx.journal_stats.resumed == 2
        assert ctx.journal_stats.recorded == 1
        assert calls == [2]  # only the missing middle cell recomputed

    def test_parallel_sweep_journals_and_resumes(self, tmp_path):
        def cell(x):
            return x * 7

        with use_runtime(jobs=2, journal_dir=tmp_path) as first:
            assert sweep([1, 2, 3, 4], cell) == [7, 14, 21, 28]
        assert first.journal_stats.recorded == 4

        with use_runtime(jobs=2, journal_dir=tmp_path, resume=True) as second:
            assert sweep([1, 2, 3, 4], cell) == [7, 14, 21, 28]
        assert second.journal_stats.resumed == 4
        assert second.journal_stats.recorded == 0

    def test_quarantined_cells_are_not_journaled(self, tmp_path):
        def bad(x):
            if x == 2:
                raise ValueError("doomed")
            return x

        policy = RetryPolicy(max_attempts=1, backoff=0.01, on_failure="quarantine")
        with use_runtime(journal_dir=tmp_path, retry=policy) as ctx:
            assert sweep([1, 2, 3], bad) == [1, None, 3]
        assert ctx.journal_stats.recorded == 2

        # On resume the quarantined cell is recomputed (and succeeds if
        # the underlying fault was transient).
        with use_runtime(journal_dir=tmp_path, resume=True) as ctx:
            assert sweep([1, 2, 3], lambda x: x) == [1, 2, 3]

    def test_unfingerprintable_items_skip_journaling(self, tmp_path):
        # Items the fingerprint encoder rejects: sweep still runs, just
        # without a journal.
        items = [lambda: 1, lambda: 2]
        with use_runtime(journal_dir=tmp_path, resume=True) as ctx:
            result = sweep(items, lambda f: f())
        assert result == [1, 2]
        assert ctx.journal_stats.recorded == 0
        assert not list(tmp_path.iterdir())
