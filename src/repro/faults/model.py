"""The fault model: *what* can break, *where*, and *for how long*.

The paper's defect-tolerance narrative (section 1) is qualitative:

    "Scaling to hundreds or thousands of processor elements and memory
    blocks on chip will increase the number of defects.  Through the
    VLSI processor architecture, the failing AP can be removed from the
    system."

To turn that into a measurable experiment this module pins down a
concrete fault universe over the layers the architecture actually makes
dynamic:

* :attr:`FaultKind.CSD_SEGMENT` — one single-hop segment of one CSD
  channel stops carrying data (section 2.6.2's "completely segmented"
  channels make the segment the natural fault unit);
* :attr:`FaultKind.SWITCH` — a chain/unchain switch sticks: a ChainedCSD
  junction between fused APs, or an S-topology chain switch that a
  configuration worm tries to program (section 3.1/3.3);
* :attr:`FaultKind.NOC_LINK` — a link between adjacent on-chip routers
  drops flits (the worm's transport, section 3.3);
* :attr:`FaultKind.WORM_FLIT` — one payload flit of a configuration worm
  is corrupted, so its switch-programming instruction is lost on
  ejection.

Every fault is **transient** (heals after a bounded number of triggers —
a particle strike, a marginal timing path) or **permanent** (a
manufacturing defect: the resource never comes back).

A :class:`FaultPlan` is the seeded source of truth.  Draws are **keyed
by the fault site** (a stable string), with a per-site RNG derived from
``(seed, crc32(site))`` — so whether a site is faulty never depends on
query order, process boundaries, or how many other sites were examined
first.  That property is what makes the Monte-Carlo campaign
bit-identical between ``--workers 1`` and ``--workers N``.  Each plan
memoizes its answers, keyed by every input of the draw; a memoized
answer is the one a fresh derivation would give.

Sites are drawn lazily, one generator each, except the CSD segments:
:meth:`FaultPlan.csd_fault_masks` derives whole (channel, segment)
grids in one batch, once per injector and group of fault domains (a
:class:`~repro.csd.chained.ChainedCSD`'s segments form one group).
:func:`site_outputs` computes every site generator's first three 64-bit
outputs in numpy arithmetic, mirroring numpy's documented
``SeedSequence`` and ``PCG64`` algorithms: the first output's
``random()`` decides whether the site is faulty, the second's its
transient bit, and the third's low half its duration through numpy's
32-bit Lemire step.  No CSD site string is built or hashed for a
healthy site, and no generator for a faulty one, except where numpy
would draw the duration past that one word (a Lemire redraw, or
``transient_hits`` above ``2**32``).  The oracle in
``tests/faults/test_batch_draw.py`` holds the batch to
``np.random.default_rng`` and fails if a numpy release changes the
streams (NEP 19 allows that between feature releases).
"""

from __future__ import annotations

import functools
import re
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "site_outputs",
    "csd_segment_site",
    "parse_csd_segment_site",
    "junction_site",
    "chain_switch_site",
    "noc_link_site",
    "worm_flit_site",
]


class FaultKind(str, Enum):
    """Where in the architecture a fault lands."""

    CSD_SEGMENT = "csd.segment"
    SWITCH = "switch"
    NOC_LINK = "noc.link"
    WORM_FLIT = "worm.flit"


#: Default share of drawn faults that are transient rather than permanent.
DEFAULT_TRANSIENT_FRACTION = 0.75

#: Default maximum triggers a transient fault survives before healing.
DEFAULT_TRANSIENT_HITS = 3


@dataclass(frozen=True)
class Fault:
    """One drawn fault: a site that will misbehave when exercised.

    ``duration`` is the number of *triggers* a transient fault withstands
    before healing; permanent faults ignore it.  Durations are measured
    in protocol events, not wall time — one trigger is one request
    crossing the segment, one stall cycle on the link, one programming
    attempt on the switch — so retry-with-backoff genuinely outlasts
    transient faults.
    """

    kind: FaultKind
    site: str
    transient: bool
    duration: int = 1

    @property
    def permanent(self) -> bool:
        return not self.transient


class FaultPlan:
    """Seeded, order-independent assignment of faults to sites.

    Parameters
    ----------
    seed:
        Every draw derives from this and the site key alone.
    rates:
        Per-kind Bernoulli probability that a site of that kind is
        faulty.  Missing kinds default to ``default_rate``.
    default_rate:
        Rate for kinds not listed in ``rates``.
    transient_fraction:
        Probability that a drawn fault is transient (else permanent).
    transient_hits:
        Upper bound on a transient fault's trigger count before healing
        (the actual duration is drawn uniformly from ``1..transient_hits``).
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[FaultKind, float]] = None,
        default_rate: float = 0.0,
        transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
        transient_hits: int = DEFAULT_TRANSIENT_HITS,
    ) -> None:
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError("fault rate must be a probability in [0, 1]")
        if not 0 <= transient_fraction <= 1:
            raise ValueError("transient fraction must be in [0, 1]")
        if transient_hits < 1:
            raise ValueError("transient faults need at least one trigger")
        rates = dict(rates) if rates else {}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind} must be in [0, 1]")
        if int(seed) < 0:
            raise ValueError("fault plan seed must be non-negative")
        self.seed = int(seed)
        self.default_rate = float(default_rate)
        self.rates: Dict[FaultKind, float] = {
            FaultKind(k): float(v) for k, v in rates.items()
        }
        self.transient_fraction = float(transient_fraction)
        self.transient_hits = int(transient_hits)
        # draw() answers, keyed by every input of the derivation; lives
        # and dies with the plan (one trial), never serialized
        self._draws: Dict[
            Tuple[int, float, float, int, FaultKind, str], Optional[Fault]
        ] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, seed: int, rate: float, **kwargs) -> "FaultPlan":
        """One rate for every fault kind — the campaign's sweep axis."""
        return cls(seed=seed, default_rate=rate, **kwargs)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan: every site is healthy, no RNG is ever
        consumed — a run under this plan is byte-identical to a run with
        no fault machinery attached at all."""
        return cls(seed=0, default_rate=0.0)

    # -- queries -----------------------------------------------------------

    @property
    def fault_free(self) -> bool:
        return self.default_rate == 0.0 and all(
            r == 0.0 for r in self.rates.values()
        )

    def rate_for(self, kind: FaultKind) -> float:
        return self.rates.get(kind, self.default_rate)

    def draw(self, kind: FaultKind, site: str) -> Optional[Fault]:
        """The fault at ``site`` (or None) — pure in ``(seed, kind, site)``.

        The same plan asked about the same site always answers the same,
        in any process, in any order: the site RNG is derived from
        ``(seed, crc32(site))`` alone, once per site, and the answer is
        memoized on the plan keyed by every input of the draw (seed,
        the kind's rate, the transient knobs, kind and site), so a
        changed rate or knob derives afresh.
        """
        rate = self.rate_for(kind)
        if rate == 0.0:
            return None
        key = (
            self.seed, rate, self.transient_fraction, self.transient_hits,
            kind, site,
        )
        if key not in self._draws:
            self._draws[key] = self._derive(kind, site, rate)
        return self._draws[key]

    def csd_fault_masks(
        self, grids: Sequence[Tuple[str, int, int]]
    ) -> List[List[int]]:
        """Per-channel bitmasks of the faulty segments of CSD domains.

        ``grids`` lists ``(domain, n_channels, n_segments)`` triples, and
        the answer holds one list of ``n_channels`` masks per triple, in
        order: bit ``s`` of entry ``c`` is set iff ``draw(CSD_SEGMENT,
        csd_segment_site(domain, c, s))`` is not None.  Every site of
        every grid is derived in one batch, and the :meth:`draw` answer
        of every faulty site is memoized; a healthy site stays out of
        the memo, since the filter that reads these masks never asks
        about it.  A rate-0 plan touches no RNG.

        The batch gives each site its generator's first three outputs:
        the first decides the fault, the second its transient bit and
        the third its duration.  A site is answered by :meth:`_derive`
        only when numpy's draw of the duration would not take the third
        output's low half once (see :func:`_durations`).
        """
        kind = FaultKind.CSD_SEGMENT
        rate = self.rate_for(kind)
        masks = [[0] * n_channels for _, n_channels, _ in grids]
        if rate == 0.0 or not grids:
            return masks
        crcs = np.concatenate([_grid_crcs(kind, *grid) for grid in grids])
        raw = site_outputs(self.seed, crcs)
        faulty = np.flatnonzero(_unit(raw[0]) < rate)
        transient = _unit(raw[1, faulty]) < self.transient_fraction
        durations = _durations(raw[2, faulty], self.transient_hits)
        sizes = [n_channels * n_segments for _, n_channels, n_segments in grids]
        starts = np.cumsum([0] + sizes).tolist()
        owners = np.searchsorted(starts, faulty, side="right") - 1
        knobs = (self.seed, rate, self.transient_fraction, self.transient_hits)
        for owner, index, is_transient, duration in zip(
            owners.tolist(), faulty.tolist(), transient.tolist(),
            durations.tolist(),
        ):
            domain, _, n_segments = grids[owner]
            channel, segment = divmod(index - starts[owner], n_segments)
            masks[owner][channel] |= 1 << segment
            site = csd_segment_site(domain, channel, segment)
            key = knobs + (kind, site)
            if key in self._draws:
                continue
            if not is_transient:
                self._draws[key] = Fault(kind, site, False)
            elif duration:
                self._draws[key] = Fault(kind, site, True, duration)
            else:
                self._draws[key] = self._derive(kind, site, rate)
        return masks

    def _derive(self, kind: FaultKind, site: str, rate: float) -> Optional[Fault]:
        rng = np.random.default_rng((self.seed, _site_crc(kind, site)))
        if rng.random() >= rate:
            return None
        transient = bool(rng.random() < self.transient_fraction)
        duration = int(rng.integers(1, self.transient_hits + 1)) if transient else 1
        return Fault(kind, site, transient, duration)

    # -- (de)serialisation -------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Picklable/JSON-able description (for campaign reports)."""
        return {
            "seed": self.seed,
            "default_rate": self.default_rate,
            "rates": {k.value: v for k, v in sorted(self.rates.items())},
            "transient_fraction": self.transient_fraction,
            "transient_hits": self.transient_hits,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=d.get("seed", 0),  # type: ignore[arg-type]
            rates={
                FaultKind(k): v  # type: ignore[misc]
                for k, v in dict(d.get("rates", {})).items()  # type: ignore[arg-type]
            },
            default_rate=d.get("default_rate", 0.0),  # type: ignore[arg-type]
            transient_fraction=d.get(
                "transient_fraction", DEFAULT_TRANSIENT_FRACTION
            ),  # type: ignore[arg-type]
            transient_hits=d.get("transient_hits", DEFAULT_TRANSIENT_HITS),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, default_rate={self.default_rate}, "
            f"rates={self.rates!r})"
        )


def _site_crc(kind: FaultKind, site: str) -> int:
    """The entropy word a site adds to the plan seed."""
    return zlib.crc32(f"{kind.value}:{site}".encode("utf-8"))


def _grid_crcs(
    kind: FaultKind, domain: str, n_channels: int, n_segments: int
) -> np.ndarray:
    """``_site_crc`` of every site of a CSD domain's grid, channel-major.

    ``crc32(a + b) == crc32(b, crc32(a))``, so the ``kind:domain/``
    prefix is hashed once and each ``ch{c}/seg{s}`` suffix continues
    from its crc; no site string is built.
    """
    prefix = zlib.crc32(f"{kind.value}:{domain}/".encode("utf-8"))
    return np.fromiter(
        (zlib.crc32(suffix, prefix) for suffix in _grid_suffixes(
            n_channels, n_segments
        )),
        dtype=np.uint32,
        count=n_channels * n_segments,
    )


@functools.lru_cache(maxsize=16)
def _grid_suffixes(n_channels: int, n_segments: int) -> Tuple[bytes, ...]:
    """The ``ch{c}/seg{s}`` tails of a grid's site strings, channel-major."""
    return tuple(
        f"ch{channel}/seg{segment}".encode("ascii")
        for channel in range(n_channels)
        for segment in range(n_segments)
    )


# -- the batched site draws ----------------------------------------------------
#
# The first outputs of ``np.random.default_rng((seed, crc))`` for many
# ``crc`` at once.
# Every step follows numpy's documented algorithms, in uint32 arrays for
# SeedSequence and in uint64 arrays of 32-bit limbs for PCG64's 128-bit
# state (Python ints over a whole grid cost more memory):
#
# * ``SeedSequence((seed, crc))``: the entropy is the seed's 32-bit words
#   (least significant first; 0 is one word) followed by ``crc``, mixed
#   into a pool of four words (``mix_entropy``), then expanded by
#   ``generate_state(4, np.uint64)``;
# * ``PCG64``: ``initstate`` is state words 0:1, the increment is
#   ``(words 2:3 << 1) | 1``, and seeding takes two LCG steps
#   (``pcg_setseq_128_srandom_r``);
# * each output: one more LCG step, then the XSL-RR output of the state;
#   ``random()`` is ``(out >> 11) * 2**-53`` of one output.

_MASK32 = 0xFFFFFFFF
#: SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier as 32-bit limbs, least significant first.
_PCG_MULT = tuple(
    (0x2360ED051FC65DA44385DF649FCCF645 >> (32 * i)) & _MASK32 for i in range(4)
)
_LIMB = np.uint64(_MASK32)
_SHIFT = np.uint64(32)


def _seed_words(value: int) -> List[int]:
    """SeedSequence's 32-bit words of a non-negative int."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pool(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence.mix_entropy``, one column per site."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)`` as eight uint32
    words, each 64-bit word's low half first."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> np.uint32(16)))
    return words


def _carry(limbs: List[np.ndarray]) -> List[np.ndarray]:
    """Normalise four uint64 limb sums to 32-bit limbs, mod 2**128."""
    out = []
    carry = np.uint64(0)
    for limb in limbs:
        total = limb + carry
        out.append(total & _LIMB)
        carry = total >> _SHIFT
    return out


def _lcg_step(state: List[np.ndarray], inc: List[np.ndarray]) -> List[np.ndarray]:
    """``state * _PCG_MULT + inc`` mod 2**128, on 32-bit limbs."""
    acc = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * np.uint64(_PCG_MULT[j])
            acc[i + j] = acc[i + j] + (product & _LIMB)
            if i + j < 3:
                acc[i + j + 1] = acc[i + j + 1] + (product >> _SHIFT)
    return _carry(acc)


def site_outputs(seed: int, crcs: Sequence[int]) -> np.ndarray:
    """The first three 64-bit outputs of every ``crc``'s site generator.

    Column ``i`` equals ``np.random.PCG64(np.random.SeedSequence((seed,
    crcs[i]))).random_raw(3)``, the bit generator under
    ``np.random.default_rng((seed, crcs[i]))`` as :meth:`FaultPlan.draw`
    builds it.  ``seed`` is a non-negative int of any size and every
    ``crc`` a 32-bit word.  The work runs in chunks of :data:`_CHUNK`
    sites, so its temporaries stay small next to the plan's memo.
    """
    crc = np.asarray(crcs, dtype=np.uint32)
    out = np.empty((3, len(crc)), dtype=np.uint64)
    for start in range(0, len(crc), _CHUNK):
        out[:, start:start + _CHUNK] = _site_outputs(
            seed, crc[start:start + _CHUNK]
        )
    return out


#: Sites per batch step of site_outputs.
_CHUNK = 1024


def _site_outputs(seed: int, crc: np.ndarray) -> np.ndarray:
    entropy = [
        np.full(crc.shape, word, dtype=np.uint32) for word in _seed_words(seed)
    ]
    words = [
        w.astype(np.uint64)
        for w in _state_words(_seed_pool(entropy + [crc]))
    ]
    # initstate = w0:w1, initseq = w2:w3 (64-bit words, high first)
    initstate = [words[2], words[3], words[0], words[1]]
    initseq = [words[6], words[7], words[4], words[5]]
    one = np.uint64(1)
    inc = [((initseq[0] << one) | one) & _LIMB] + [
        ((initseq[k] << one) | (initseq[k - 1] >> np.uint64(31))) & _LIMB
        for k in range(1, 4)
    ]
    # srandom steps once from state 0 (giving inc), adds initstate and
    # steps again; each output steps once more first.  Three outputs:
    # the fault draw, the transient bit and the duration.
    state = _lcg_step(_carry([a + b for a, b in zip(inc, initstate)]), inc)
    out = np.empty((3, len(crc)), dtype=np.uint64)
    for row in out:
        state = _lcg_step(state, inc)
        high = (state[3] << _SHIFT) | state[2]
        low = (state[1] << _SHIFT) | state[0]
        rot = state[3] >> np.uint64(26)
        xored = high ^ low
        row[:] = (xored >> rot) | (
            xored << ((np.uint64(64) - rot) & np.uint64(63))
        )
    return out


def _unit(raw: np.ndarray) -> np.ndarray:
    """``random()`` of each 64-bit output: ``(out >> 11) * 2**-53``."""
    return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _durations(raw: np.ndarray, hits: int) -> np.ndarray:
    """``integers(1, hits + 1)`` of each generator whose next output is
    ``raw``, or 0 where that needs more than ``raw`` holds.

    numpy draws a range of fewer than ``2**32`` values with Lemire's
    32-bit method on the low half of its next output, ``1 + (low * hits
    >> 32)``, and redraws when ``(low * hits) mod 2**32 < 2**32 mod
    hits``.  The formula also gives numpy's answer where it draws no
    such step: 1 at ``hits == 1`` (no draw at all) and ``1 + low`` at
    ``hits == 2**32``.  A wider range takes numpy's 64-bit path, so
    every answer is 0 there.
    """
    if hits > 2**32:
        return np.zeros(raw.shape, dtype=np.uint64)
    scaled = (raw & _LIMB) * np.uint64(hits)
    accepted = (scaled & _LIMB) >= np.uint64(2**32 % hits)
    return np.where(accepted, (scaled >> _SHIFT) + np.uint64(1), np.uint64(0))


#: Site-key helpers — one format per fault kind, shared by every hook so
#: the same physical resource always maps to the same draw.

def csd_segment_site(domain: str, channel: int, segment: int) -> str:
    """A single-hop segment of one channel in one CSD fault domain."""
    return f"{domain}/ch{channel}/seg{segment}"


_CSD_SITE = re.compile(r"(.*)/ch(0|[1-9][0-9]*)/seg(0|[1-9][0-9]*)", re.DOTALL)


def parse_csd_segment_site(site: str) -> Optional[Tuple[str, int, int]]:
    """``(domain, channel, segment)`` if :func:`csd_segment_site` of
    those gives ``site``, else None."""
    match = _CSD_SITE.fullmatch(site)
    if match is None:
        return None
    return match.group(1), int(match.group(2)), int(match.group(3))


def junction_site(index: int) -> str:
    """A chain/unchain junction between fused AP segments."""
    return f"junction/{index}"


def chain_switch_site(a: Tuple[int, int], b: Tuple[int, int]) -> str:
    """An S-topology chain switch between adjacent clusters (undirected)."""
    lo, hi = sorted((a, b))
    return f"chainsw/{lo[0]},{lo[1]}-{hi[0]},{hi[1]}"


def noc_link_site(src: Tuple[int, int], dst: Tuple[int, int]) -> str:
    """A directed router-to-router link."""
    return f"link/{src[0]},{src[1]}->{dst[0]},{dst[1]}"


def worm_flit_site(payload: object) -> str:
    """A configuration-worm payload flit, keyed by what it programs (not
    by packet id, which is process-global and would break determinism)."""
    return f"flit/{payload!r}"
