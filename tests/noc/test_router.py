"""Unit tests for the five-port wormhole router (Figure 7(e))."""

import pytest

from repro.errors import SimulationError
from repro.noc.flit import make_packet
from repro.noc.router import Router
from repro.noc.routing_algos import Port


def _flits(src, dst, n=1):
    return make_packet(src, dst, payloads=list(range(n))).flits


class TestQueueStage:
    def test_accepts_until_capacity(self):
        r = Router((0, 0), queue_capacity=2)
        f1, f2 = _flits((0, 0), (0, 3), 2)
        r.receive(Port.LOCAL, f1)
        r.receive(Port.LOCAL, f2)
        assert not r.can_accept(Port.LOCAL)

    def test_overflow_raises(self):
        r = Router((0, 0), queue_capacity=1)
        (f,) = _flits((0, 0), (0, 3))
        r.receive(Port.WEST, f)
        with pytest.raises(SimulationError):
            r.receive(Port.WEST, f)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Router((0, 0), queue_capacity=0)

    def test_idle_and_occupancy(self):
        r = Router((0, 0))
        assert r.is_idle and r.queued_flits() == 0
        r.receive(Port.LOCAL, _flits((0, 0), (1, 0))[0])
        assert not r.is_idle and r.queued_flits() == 1


class TestAllocation:
    def test_head_routes_by_xy(self):
        r = Router((0, 0))
        r.receive(Port.LOCAL, _flits((0, 0), (0, 3))[0])
        (move,) = r.arbitrate()
        assert move.out_port is Port.EAST

    def test_local_delivery(self):
        r = Router((2, 2))
        r.receive(Port.WEST, _flits((0, 0), (2, 2))[0])
        (move,) = r.arbitrate()
        assert move.out_port is Port.LOCAL

    def test_one_flit_per_output_per_cycle(self):
        r = Router((0, 0))
        # two heads both wanting EAST
        r.receive(Port.LOCAL, _flits((0, 0), (0, 3))[0])
        r.receive(Port.WEST, _flits((0, 0), (0, 5))[0])
        moves = r.arbitrate()
        assert len(moves) == 1

    def test_distinct_outputs_move_in_parallel(self):
        r = Router((1, 1))
        r.receive(Port.LOCAL, _flits((1, 1), (1, 3))[0])   # EAST
        r.receive(Port.EAST, _flits((1, 3), (1, 0))[0])    # WEST
        moves = r.arbitrate()
        assert {m.out_port for m in moves} == {Port.EAST, Port.WEST}

    def test_non_head_at_unlocked_input_is_protocol_error(self):
        r = Router((0, 0))
        head, body, tail = _flits((0, 0), (0, 3), 3)
        r.receive(Port.LOCAL, body)
        with pytest.raises(SimulationError):
            r.arbitrate()


class TestWormholeLocking:
    def test_head_locks_until_tail(self):
        r = Router((0, 0))
        head, body, tail = _flits((0, 0), (0, 3), 3)
        r.receive(Port.LOCAL, head)
        (move,) = r.arbitrate()
        r.commit_move(move)
        assert r.locked_pairs() == {(Port.LOCAL, 0): Port.EAST}
        r.receive(Port.LOCAL, body)
        (move,) = r.arbitrate()
        r.commit_move(move)
        assert r.locked_pairs() == {(Port.LOCAL, 0): Port.EAST}
        r.receive(Port.LOCAL, tail)
        (move,) = r.arbitrate()
        r.commit_move(move)
        assert r.locked_pairs() == {}

    def test_competing_worm_blocked_while_locked(self):
        r = Router((0, 0))
        head1, _body, _tail = _flits((0, 0), (0, 3), 3)
        r.receive(Port.LOCAL, head1)
        (move,) = r.arbitrate()
        r.commit_move(move)  # LOCAL->EAST locked
        head2 = _flits((0, 0), (0, 5))[0]
        r.receive(Port.WEST, head2)
        moves = r.arbitrate()
        # the second worm cannot take EAST; nothing else for it to do
        assert all(m.in_port is not Port.WEST for m in moves)

    def test_head_tail_singleton_leaves_no_lock(self):
        r = Router((0, 0))
        r.receive(Port.LOCAL, _flits((0, 0), (0, 3))[0])
        (move,) = r.arbitrate()
        r.commit_move(move)
        assert r.locked_pairs() == {}

    def test_stale_commit_rejected(self):
        r = Router((0, 0))
        f = _flits((0, 0), (0, 3))[0]
        r.receive(Port.LOCAL, f)
        (move,) = r.arbitrate()
        r.commit_move(move)
        with pytest.raises(SimulationError):
            r.commit_move(move)


class TestFairness:
    def test_round_robin_rotates_priority(self):
        r = Router((1, 1))
        # two inputs competing for EAST repeatedly
        a = make_packet((1, 1), (1, 3), payloads=[1]).flits[0]
        b = make_packet((1, 0), (1, 3), payloads=[1]).flits[0]
        r.receive(Port.LOCAL, a)
        r.receive(Port.WEST, b)
        (m1,) = r.arbitrate()
        first = m1.in_port
        r.commit_move(m1)
        (m2,) = r.arbitrate()
        assert m2.in_port != first  # the loser goes next
