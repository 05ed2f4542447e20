"""Integration: the §2.5 virtual-hardware story end-to-end.

Two applications alternate on one small AP: configuring the second
displaces the first's objects into the library (write-back through the
scheduling table); re-configuring the first reloads them.  "An unused
object should be swapped out to a memory block to make room for a newly
requested object(s).  This replacement is equivalent to the write-back
policy of conventional cache memory."
"""

from repro.ap.config_stream import ConfigStream
from repro.ap.objects import LogicalObject, Operation
from repro.ap.pipeline import AdaptiveProcessor
from repro.ap.virtual_hw import ObjectLibrary


def two_apps_library():
    app_a = [LogicalObject(i, Operation.CONST, 10 + i) for i in range(4)]
    app_b = [LogicalObject(10 + i, Operation.CONST, 20 + i) for i in range(4)]
    return ObjectLibrary(app_a + app_b, load_latency=2)


def stream(ids):
    return ConfigStream.from_pairs([(i, []) for i in ids])


class TestSwapInSwapOut:
    def test_alternating_applications(self):
        ap = AdaptiveProcessor(capacity=4, library=two_apps_library())
        # app A configures and runs; then releases its objects
        stats_a = ap.run(stream(range(4)))
        assert stats_a.misses == 4
        for i in range(4):
            ap.release_object(i)
        # app B displaces A entirely (capacity 4)
        stats_b = ap.run(stream(range(10, 14)))
        assert stats_b.misses == 4
        assert stats_b.evictions == 4
        assert ap.scheduler.backlog == 4  # A's objects await write-back
        drained = ap.scheduler.drain_all()
        assert {o.object_id for o in drained} == {0, 1, 2, 3}
        for i in range(10, 14):
            ap.release_object(i)
        # app A comes back: a fresh set of cold loads from the library
        stats_a2 = ap.run(stream(range(4)))
        assert stats_a2.misses == 4
        assert all(i in ap.stack for i in range(4))

    def test_written_back_objects_keep_their_state(self):
        library = two_apps_library()
        ap = AdaptiveProcessor(capacity=4, library=library)
        ap.run(stream(range(4)))
        for i in range(4):
            ap.release_object(i)
        ap.run(stream(range(10, 14)))
        ap.scheduler.drain_all()
        # the library copy of object 2 still carries its initial data
        reloaded, _ = library.load(2)
        assert reloaded.init_data == 12

    def test_scalar_mode_partial_working_sets(self):
        """Completely scalar operation (§2.5): a datapath larger than C
        can run piecewise when objects release between elements."""
        objs = [LogicalObject(i, Operation.CONST, i) for i in range(6)]
        ap = AdaptiveProcessor(capacity=2, library=ObjectLibrary(objs))
        for i in range(6):  # one object live at a time
            ap.run(stream([i]))
            ap.release_object(i)
        # all six objects passed through a 2-slot array
        assert ap.library.loads == 6
        assert ap.stack.eviction_count >= 4
