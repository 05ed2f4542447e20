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

A :class:`FaultPlan` is the seeded source of truth.  Draws are made
lazily, **keyed by the fault site** (a stable string), with a per-site
RNG derived from ``(seed, crc32(site))`` — so whether a site is faulty
never depends on query order, process boundaries, or how many other
sites were examined first.  That property is what makes the Monte-Carlo
campaign bit-identical between ``--workers 1`` and ``--workers N``.
The hooks ask about the same sites over and over (a fault campaign asks
about each distinct site about eight times), so each plan memoizes its
answers, keyed by every input of the draw; a memoized answer is the one
a fresh derivation would give.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "csd_segment_site",
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

    def _derive(self, kind: FaultKind, site: str, rate: float) -> Optional[Fault]:
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(f"{kind.value}:{site}".encode("utf-8")))
        )
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


#: Site-key helpers — one format per fault kind, shared by every hook so
#: the same physical resource always maps to the same draw.

def csd_segment_site(domain: str, channel: int, segment: int) -> str:
    """A single-hop segment of one channel in one CSD fault domain."""
    return f"{domain}/ch{channel}/seg{segment}"


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
