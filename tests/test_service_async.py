"""Tests for the async ingestion path (aingest + bounded queue)."""

import asyncio

import numpy as np
import pytest

from repro.data import HistogramQuery
from repro.exceptions import InvalidPrivacyParameterError
from repro.markov import two_state_matrix
from repro.service import (
    BoundedIngestQueue,
    QueueClosed,
    ReleaseSession,
    SessionConfig,
)


@pytest.fixture
def session():
    m = two_state_matrix(0.8, 0.1)
    return ReleaseSession(
        SessionConfig(
            correlations={u: (m, m) for u in range(4)},
            budgets=0.1,
            query=HistogramQuery(2),
            queue_maxsize=3,
            seed=0,
        )
    )


class TestBoundedIngestQueue:
    def test_fifo_results(self):
        async def scenario():
            queue = BoundedIngestQueue(lambda x: x * 2, maxsize=2)
            results = await asyncio.gather(
                *(queue.submit(i) for i in range(10))
            )
            await queue.close()
            return results, queue

        results, queue = asyncio.run(scenario())
        assert results == [i * 2 for i in range(10)]
        assert queue.submitted == queue.processed == 10

    def test_backpressure_bounds_depth(self):
        async def scenario():
            queue = BoundedIngestQueue(lambda x: x, maxsize=2)
            await asyncio.gather(*(queue.submit(i) for i in range(20)))
            await queue.close()
            return queue

        queue = asyncio.run(scenario())
        assert queue.high_watermark <= 2

    def test_exceptions_reach_the_submitter(self):
        def explode(item):
            raise RuntimeError(f"boom {item}")

        async def scenario():
            queue = BoundedIngestQueue(explode, maxsize=2)
            with pytest.raises(RuntimeError, match="boom 7"):
                await queue.submit(7)
            await queue.close()

        asyncio.run(scenario())

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(lambda x: x, maxsize=0)

    def test_close_with_parked_producers_strands_nobody(self):
        """Regression: close() racing producers parked in put() must not
        cancel the drain task while their items are still unprocessed."""

        async def scenario():
            queue = BoundedIngestQueue(lambda x: x, maxsize=1)
            producers = [
                asyncio.create_task(queue.submit(i)) for i in range(8)
            ]
            await asyncio.sleep(0)  # let them pile up against the bound
            await queue.close()
            return await asyncio.wait_for(asyncio.gather(*producers), 5)

        assert asyncio.run(scenario()) == list(range(8))

    def test_close_is_idempotent(self):
        async def scenario():
            queue = BoundedIngestQueue(lambda x: x, maxsize=1)
            await queue.close()  # never started
            await queue.submit(1)
            await queue.close()
            await queue.close()

        asyncio.run(scenario())

    def test_submit_racing_close_raises_queue_closed(self):
        """A submission arriving while close() is tearing the queue down
        raises QueueClosed instead of parking on a future nobody will
        resolve (the old hang)."""

        async def scenario():
            queue = BoundedIngestQueue(lambda x: x, maxsize=1)
            producers = [
                asyncio.create_task(queue.submit(i)) for i in range(4)
            ]
            await asyncio.sleep(0)  # park them against the bound
            closer = asyncio.create_task(queue.close())
            await asyncio.sleep(0)  # close() is now in progress
            with pytest.raises(QueueClosed):
                await queue.submit(99)
            await asyncio.wait_for(closer, 5)
            # Producers parked before close() began all still complete.
            return await asyncio.wait_for(asyncio.gather(*producers), 5)

        assert asyncio.run(scenario()) == list(range(4))

    def test_batch_draining_coalesces_and_keeps_order(self):
        rounds = []

        def process_batch(items):
            rounds.append(len(items))
            return [i * 2 for i in items]

        async def scenario():
            queue = BoundedIngestQueue(
                lambda x: x,
                maxsize=8,
                batch_size=4,
                process_batch=process_batch,
            )
            results = await asyncio.gather(
                *(queue.submit(i) for i in range(10))
            )
            await queue.close()
            return results, queue

        results, queue = asyncio.run(scenario())
        assert results == [i * 2 for i in range(10)]
        assert sum(rounds) == 10
        assert max(rounds) > 1  # backlog actually coalesced
        assert queue.batch_high_watermark == max(rounds)
        assert max(rounds) <= 4

    def test_failed_batch_retries_per_item(self):
        """A poisoned submission must fail alone: when process_batch
        raises, the round is retried item by item so healthy submissions
        get exactly the result they would have had with batch_size=1."""

        def process_one(item):
            if item == "bad":
                raise RuntimeError("boom bad")
            return item * 2

        def process_batch(items):
            if "bad" in items:
                raise RuntimeError("boom batch")
            return [process_one(i) for i in items]

        async def scenario():
            queue = BoundedIngestQueue(
                process_one, maxsize=4, batch_size=4, process_batch=process_batch
            )
            results = await asyncio.gather(
                queue.submit(1),
                queue.submit("bad"),
                queue.submit(3),
                return_exceptions=True,
            )
            await queue.close()
            return results, queue

        results, queue = asyncio.run(scenario())
        assert results[0] == 2
        assert isinstance(results[1], RuntimeError)
        assert str(results[1]) == "boom bad"
        assert results[2] == 6
        assert queue.processed == 3

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(lambda x: x, batch_size=0)

    def test_stats_snapshot(self):
        async def scenario():
            queue = BoundedIngestQueue(lambda x: x, maxsize=2)
            await asyncio.gather(*(queue.submit(i) for i in range(5)))
            await queue.close()
            return queue.stats()

        stats = asyncio.run(scenario())
        assert stats["submitted"] == stats["processed"] == 5
        assert stats["cancelled"] == 0
        assert stats["maxsize"] == 2
        assert 1 <= stats["high_watermark"] <= 2

    def test_cancelled_submission_is_never_processed(self):
        """Regression: an entry whose submitter cancelled before the
        drain task reached it used to be processed anyway -- charging
        the consumer (privacy budget!) for an abandoned request and
        silently dropping any exception it raised."""
        calls = []

        async def scenario():
            queue = BoundedIngestQueue(
                lambda x: calls.append(x) or x, maxsize=8
            )
            tasks = [asyncio.create_task(queue.submit(i)) for i in range(3)]
            # One scheduler pass: the submits enqueue and park on their
            # result futures, the drain task has not yet run.
            await asyncio.sleep(0)
            tasks[1].cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await queue.close()
            return results, queue

        results, queue = asyncio.run(scenario())
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], asyncio.CancelledError)
        assert calls == [0, 2]  # the cancelled item never hit the consumer
        stats = queue.stats()
        assert stats["cancelled"] == 1
        assert stats["processed"] == 2
        assert stats["submitted"] == 3

    def test_cancelled_submissions_excluded_from_coalesced_windows(self):
        """Regression (batch drain path): cancelled entries must not ride
        into the coalesced window handed to process_batch."""
        rounds = []

        def process_batch(items):
            rounds.append(list(items))
            return [i * 2 for i in items]

        async def scenario():
            queue = BoundedIngestQueue(
                lambda x: x * 2,
                maxsize=8,
                batch_size=4,
                process_batch=process_batch,
            )
            tasks = [asyncio.create_task(queue.submit(i)) for i in range(4)]
            await asyncio.sleep(0)
            tasks[1].cancel()
            tasks[2].cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await queue.close()
            return results, queue

        results, queue = asyncio.run(scenario())
        assert results[0] == 0 and results[3] == 6
        assert all(
            isinstance(results[i], asyncio.CancelledError) for i in (1, 2)
        )
        drained = [item for round_ in rounds for item in round_]
        assert drained == [0, 3]  # cancelled items excluded from windows
        stats = queue.stats()
        assert stats["cancelled"] == 2
        assert stats["processed"] == 2

    def test_all_cancelled_batch_is_dropped_without_processing(self):
        rounds = []

        def process_batch(items):
            rounds.append(list(items))
            return list(items)

        async def scenario():
            queue = BoundedIngestQueue(
                lambda x: x, maxsize=8, batch_size=4, process_batch=process_batch
            )
            tasks = [asyncio.create_task(queue.submit(i)) for i in range(3)]
            await asyncio.sleep(0)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await queue.close()
            return queue

        queue = asyncio.run(scenario())
        assert rounds == []
        assert queue.stats()["cancelled"] == 3

    def test_submit_from_a_second_loop_is_rejected(self):
        """Regression: a queue bound to one event loop used to accept
        submits from another, creating the result future on the wrong
        loop (hangs, or 'attached to a different loop' crashes).  Now it
        raises a clear RuntimeError; after close() the queue may re-bind
        to a fresh loop."""
        queue = BoundedIngestQueue(lambda x: x, maxsize=2)
        assert asyncio.run(queue.submit(1)) == 1
        with pytest.raises(RuntimeError, match="different event loop"):
            asyncio.run(queue.submit(2))
        asyncio.run(queue.close())
        assert asyncio.run(queue.submit(3)) == 3  # fresh binding post-close
        asyncio.run(queue.close())


class TestAingest:
    def test_events_in_submission_order(self, session):
        async def scenario():
            async with session:
                return await asyncio.gather(
                    *(
                        session.aingest(np.array([0, 1, 1, 0]))
                        for _ in range(8)
                    )
                )

        events = asyncio.run(scenario())
        assert [e.t for e in events] == list(range(1, 9))
        assert session.horizon == 8
        # The accounting equals the synchronous path exactly.
        assert events[-1].max_tpl == session.max_tpl()

    def test_matches_sync_ingest_bitwise(self, session):
        async def scenario(s):
            async with s:
                out = []
                for t in range(5):
                    out.append(
                        await s.aingest(
                            np.array([0, 1, 0, 1]),
                            overrides={1: 0.05} if t == 2 else None,
                        )
                    )
                return out

        async_events = asyncio.run(scenario(session))

        m = two_state_matrix(0.8, 0.1)
        sync_session = ReleaseSession(
            SessionConfig(
                correlations={u: (m, m) for u in range(4)},
                budgets=0.1,
                query=HistogramQuery(2),
                seed=0,
            )
        )
        sync_events = [
            sync_session.ingest(
                np.array([0, 1, 0, 1]),
                overrides={1: 0.05} if t == 2 else None,
            )
            for t in range(5)
        ]
        for a, b in zip(async_events, sync_events):
            assert a.payload() == b.payload()

    def test_validation_errors_propagate(self, session):
        async def scenario():
            async with session:
                with pytest.raises(InvalidPrivacyParameterError):
                    await session.aingest(np.array([0, 0, 0, 0]), epsilon=-1.0)
                # The queue survives the failure and keeps processing.
                return await session.aingest(np.array([0, 0, 0, 0]))

        event = asyncio.run(scenario())
        assert event.t == 1
        assert session.horizon == 1

    def test_aclose_without_aingest_is_noop(self, session):
        asyncio.run(session.aclose())

    def test_poisoned_submission_fails_alone_in_coalesced_window(self):
        """Regression for window coalescing: one invalid submission in a
        drained window must not fail its batch-mates -- healthy
        submissions are accounted exactly as with window_size=1."""
        m = two_state_matrix(0.8, 0.1)
        session = ReleaseSession(
            SessionConfig(
                correlations={u: (m, m) for u in range(4)},
                budgets=0.1,
                query=HistogramQuery(2),
                window_size=4,
                seed=0,
            )
        )

        async def scenario():
            async with session:
                return await asyncio.gather(
                    session.aingest(np.array([0, 1, 1, 0])),
                    session.aingest(np.array([0, 0, 1, 0]), epsilon=-1.0),
                    session.aingest(np.array([1, 1, 1, 0])),
                    session.aingest(np.array([0, 1, 0, 0])),
                    return_exceptions=True,
                )

        results = asyncio.run(scenario())
        assert isinstance(results[1], InvalidPrivacyParameterError)
        good = [results[0], results[2], results[3]]
        assert [e.t for e in good] == [1, 2, 3]
        assert all(e.status == "released" for e in good)
        assert session.horizon == 3


class TestOffloadAndGroupCommit:
    """The lane thread and the group-commit hook must be invisible to
    submitters: same results, same ordering, same failure isolation --
    only the thread (and the commit cadence) changes."""

    def test_offload_runs_consumer_off_the_loop_thread(self):
        import threading

        seen = []

        def process(x):
            seen.append(threading.current_thread().name)
            return x

        async def drive():
            queue = BoundedIngestQueue(process, maxsize=2)
            await asyncio.gather(*(queue.submit(i) for i in range(3)))
            await queue.close()

        asyncio.run(drive())
        assert seen and all(name.startswith("repro-lane") for name in seen)
        assert threading.main_thread().name not in seen

    def test_offload_batch_coalescing_and_failure_isolation(self):
        rounds = []

        def process(x):
            if x == "bad":
                raise ValueError("boom bad")
            return x

        def process_batch(items):
            rounds.append(list(items))
            if "bad" in items:
                raise ValueError("batch poisoned")
            return list(items)

        async def drive():
            queue = BoundedIngestQueue(
                process,
                maxsize=8,
                batch_size=8,
                process_batch=process_batch,
            )
            results = await asyncio.gather(
                *(queue.submit(x) for x in [1, "bad", 3]),
                return_exceptions=True,
            )
            await queue.close()
            return results

        results = asyncio.run(drive())
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], ValueError)
        assert str(results[1]) == "boom bad"

    def test_offload_survives_close_and_rebind(self):
        queue = BoundedIngestQueue(lambda x: x + 1, maxsize=2)

        async def drive(values):
            results = await asyncio.gather(*(queue.submit(v) for v in values))
            await queue.close()
            return results

        assert asyncio.run(drive([1, 2])) == [2, 3]
        # A fresh loop after close(): the lane is recreated transparently.
        assert asyncio.run(drive([10, 20])) == [11, 21]

    def test_group_commit_runs_once_per_burst(self):
        commits = []

        def commit():
            commits.append(len(commits))

        async def drive():
            queue = BoundedIngestQueue(
                lambda x: x,
                maxsize=8,
                batch_size=4,
                process_batch=lambda items: list(items),
                commit=commit,
            )
            results = await asyncio.gather(*(queue.submit(i) for i in range(8)))
            await queue.close()
            return results, queue.stats()

        results, stats = asyncio.run(drive())
        assert results == list(range(8))
        # 8 items over batch_size=4 -> >= 2 rounds, but one burst: fewer
        # commits than rounds is the whole point; at least one must run.
        assert 1 <= len(commits) <= 2
        assert stats["group_commits"] == len(commits)

    def test_commit_failure_reaches_every_submitter_in_the_burst(self):
        def commit():
            raise OSError("disk full")

        async def drive():
            queue = BoundedIngestQueue(
                lambda x: x,
                maxsize=4,
                batch_size=4,
                process_batch=lambda items: list(items),
                commit=commit,
            )
            results = await asyncio.gather(
                *(queue.submit(i) for i in range(4)), return_exceptions=True
            )
            await queue.close()
            return results

        results = asyncio.run(drive())
        assert all(isinstance(r, OSError) for r in results)
        assert all(str(r) == "disk full" for r in results)

    def test_commit_failure_does_not_mask_processing_failure(self):
        """A submitter whose *processing* already failed keeps its own
        exception; only acknowledged-but-uncommitted work is converted."""

        def process(x):
            if x == "bad":
                raise ValueError("boom bad")
            return x

        def commit():
            raise OSError("disk full")

        async def drive():
            queue = BoundedIngestQueue(
                process, maxsize=4, commit=commit
            )
            results = await asyncio.gather(
                *(queue.submit(x) for x in [1, "bad"]), return_exceptions=True
            )
            await queue.close()
            return results

        results = asyncio.run(drive())
        assert isinstance(results[0], OSError)
        assert isinstance(results[1], ValueError)
