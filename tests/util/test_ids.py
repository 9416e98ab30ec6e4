"""Identifier generation tests."""

import sys
import threading

from repro.util.ids import IdGenerator, fresh_id


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        gen = IdGenerator()
        assert gen.next("a") == "a:0"
        assert gen.next("a") == "a:1"

    def test_prefixes_count_independently(self):
        gen = IdGenerator()
        gen.next("a")
        assert gen.next("b") == "b:0"

    def test_instances_are_independent(self):
        first, second = IdGenerator(), IdGenerator()
        first.next("x")
        assert second.next("x") == "x:0"

    def test_reset_restarts_counters(self):
        gen = IdGenerator()
        gen.next("a")
        gen.reset()
        assert gen.next("a") == "a:0"

    def test_no_duplicates_under_concurrency(self):
        gen = IdGenerator()
        threads, rounds, prefixes = 4, 100, 50
        seen: list[str] = []
        barrier = threading.Barrier(threads)

        def worker():
            for round_ in range(rounds):
                # All threads walk the same brand-new prefixes at once, so
                # counters are created under contention, not only drawn.
                barrier.wait()
                for index in range(prefixes):
                    seen.append(gen.next(f"r{round_}-{index}"))
                    seen.append(gen.next("shared"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == len(set(seen)) == 2 * threads * rounds * prefixes
        assert {i for i in seen if i.startswith("r7-3:")} == {
            f"r7-3:{n}" for n in range(threads)
        }


class TestFreshId:
    def test_unique_across_calls(self):
        assert fresh_id("test-prefix") != fresh_id("test-prefix")

    def test_uses_prefix(self):
        assert fresh_id("widget").startswith("widget:")
