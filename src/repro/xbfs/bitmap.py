"""Bit-packed frontier bitmaps and the level loop of the bitmap engines.

The linear-algebra view of BFS replaces per-vertex frontier queues with
a Boolean matrix: entry ``(v, s)`` means "vertex *v* is on source *s*'s
frontier". Both the fixed-direction baseline
(:class:`repro.baselines.linalg.LinAlgBFS`, one source) and the batched
serving engines operate on the same representation: the source axis
packed 64-to-a-word into a ``(num_vertices, words)`` ``uint64`` array,
so one AND/OR retires 64 sources and the masked semiring product

    next = (Aᵀ · F) ⊙ ¬visited

is a handful of word-wide vector ops. This module is the single
implementation of those packbits frontier ops — the scatter-OR push
product, the segment-OR pull gather, the ``¬visited`` mask, the
pack/unpack conversions, and the bit-sliced level counter that tracks
every pair's BFS level in packed planes.

The products are laid out for the host's memory system. Bitmap rows
are picked with ``np.take(..., axis=0)``: a fancy index on a matrix
only a few words wide goes through numpy's general indexing path, about
10x slower at two words. The pull runs in blocks of about 2^16
gathered words, so each block's frontier rows stay in cache while
they are reduced. When its candidates hold most of the in-edges, it
reads contiguous ranges of the reverse CSR instead of building an edge
list. The push scatters word by word on narrow bitmaps.

It also holds the one level loop every multi-source engine runs
(:class:`BitmapBatchEngine`): the 64-source
:class:`~repro.xbfs.concurrent.ConcurrentBFS`, the up-to-1024-source
:class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS`, and the batches of
both multi-GCD pods (:mod:`repro.multigcd`). The loop owns the
frontier/visited bitmaps, the counter planes, the ``bfs.level`` spans
and the fault replay, and returns one :class:`BitmapBatchResult`. An
engine supplies a per-level *plan* (which host product, under which
strategy label) and a per-level *charge*, whose launches the one
helper :meth:`BitmapBatchEngine._launch` builds (MODEL.md §6). A pod
also supplies its device (its member GCDs as one bulk-synchronous
clock), its host product (built from what crosses its wire) and its
result type. A level is committed — counters, visited, edge totals —
only after its launches sync, so an injected device fault leaves
nothing to roll back: the charge is replayed under
:func:`~repro.xbfs.common.replay_on_fault`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import TraversalError
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import AccessStream, Pattern, rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.classifier import Decision, DecisionAudit
from repro.xbfs.common import gather_adjacency, replay_on_fault, segment_lines_touched

__all__ = [
    "WORD_BITS",
    "words_for",
    "row_bytes",
    "make_bitmap",
    "set_source_bits",
    "full_row_mask",
    "scatter_or_rows",
    "segment_or_rows",
    "push_product",
    "pull_product",
    "pull_runs",
    "pull_candidates",
    "fresh_mask",
    "occupied_rows",
    "popcount_rows",
    "pack_rows",
    "unpack_rows",
    "counter_add",
    "counter_levels",
    "BitmapBatchResult",
    "BitmapBatchEngine",
]

#: Sources per bitmap word.
WORD_BITS = 64

_WORD = np.uint64
_ONE = np.uint64(1)

#: Vertex rows per block of :func:`counter_levels`' final transpose: a
#: block of the vertex-major accumulator stays in cache while it is
#: scattered across the source-major rows (a whole-matrix strided copy
#: is about four times slower at 32k vertices x 128 sources).
_TRANSPOSE_ROWS = 512

#: Gathered bitmap words per block of :func:`pull_runs` (512 KiB of
#: frontier rows, about an L2's worth).
_BLOCK_WORDS = 1 << 16

#: Widest bitmap :func:`scatter_or_rows` scatters word by word.
_WORD_SCATTER_MAX = 3


def words_for(num_sources: int) -> int:
    """Words needed to hold one bit per source."""
    if num_sources < 1:
        raise TraversalError(
            f"a bitmap needs at least one source, got {num_sources}"
        )
    return (num_sources + WORD_BITS - 1) // WORD_BITS


def row_bytes(rows: int, width: int, *, block: bool = False) -> int:
    """Bytes of ``rows`` bitmap rows of a ``width``-source batch in a
    message, the pods' wire and receive buffers alike: 8 per word of
    each row. A one-source row is one bit that its id implies, so it
    costs nothing beside its id, and a whole uncompressed ``block`` of
    rows ships as their bitmap, ``ceil(rows / 8)`` bytes."""
    if width > 1:
        return rows * 8 * words_for(width)
    return -(-rows // 8) if block else 0


def make_bitmap(num_vertices: int, num_sources: int) -> np.ndarray:
    """All-zero ``(num_vertices, words)`` uint64 bitmap."""
    return np.zeros((num_vertices, words_for(num_sources)), dtype=_WORD)


def set_source_bits(bitmap: np.ndarray, sources: np.ndarray) -> None:
    """Set bit *i* on row ``sources[i]`` (slot *i* owns bit *i*).

    Callers must have rejected duplicate sources already — two slots on
    one row would alias a single bit (the same hazard
    :func:`repro.xbfs.concurrent.validate_batch_sources` guards).
    """
    sources = np.asarray(sources, dtype=np.int64)
    slots = np.arange(sources.size, dtype=np.int64)
    np.bitwise_or.at(
        bitmap,
        (sources, slots // WORD_BITS),
        _ONE << (slots % WORD_BITS).astype(_WORD),
    )


def full_row_mask(num_sources: int) -> np.ndarray:
    """One row's worth of "every source" bits: all words saturated,
    the last word masked down to the valid source count."""
    words = words_for(num_sources)
    mask = np.full(words, ~np.uint64(0), dtype=_WORD)
    tail = num_sources % WORD_BITS
    if tail:
        mask[-1] = (_ONE << np.uint64(tail)) - _ONE
    return mask


def scatter_or_rows(
    dest: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """``dest[rows[i]] |= values[i]`` with duplicate rows accumulated.

    The push-direction semiring product: ``rows`` are the gathered
    neighbour endpoints of the frontier's adjacency, ``values`` the
    frontier words of the edge's owner. One call is the whole
    ``Aᵀ · F`` column scatter for a level.

    Up to :data:`_WORD_SCATTER_MAX` words the scatter runs word by
    word, a 1-D ``np.bitwise_or.at`` per word column: ``ufunc.at``
    costs less per element on 1-D operands (about 0.6x the 2-D call's
    time at two words). From about four words the one 2-D call, which
    moves a whole row per index, is faster.
    """
    if dest.shape[1] > _WORD_SCATTER_MAX:
        np.bitwise_or.at(dest, rows, values)
        return
    for w in range(dest.shape[1]):
        np.bitwise_or.at(dest[:, w], rows, values[:, w])


def segment_or_rows(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment OR-reduction of consecutive bitmap rows.

    The pull-direction gather: segment *i* holds the frontier words of
    candidate *i*'s in-neighbours; the reduction is that candidate's
    incoming bit set. Zero-length segments reduce to zero words.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros((lengths.size, values.shape[1]), dtype=_WORD)
    if values.shape[0] == 0 or lengths.size == 0:
        return out
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    out[nonempty] = np.bitwise_or.reduceat(values, starts, axis=0)
    return out


def push_product(
    graph: CSRGraph, frontier: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Push product ``Aᵀ · F``: scatter-OR along the frontier's out-edges.

    Every occupied row ``active`` ORs its frontier words into its
    out-neighbours' rows. The rows are picked with ``np.take``: a
    fancy index on the ``(vertices, words)`` bitmap copies row by row
    through numpy's general indexing path, several times slower than
    ``take``'s contiguous row copies at a few words per row."""
    incoming = np.zeros_like(frontier)
    scatter_or_rows(
        incoming,
        gather_adjacency(graph, active),
        np.repeat(
            np.take(frontier, active, axis=0), graph.degrees[active], axis=0
        ),
    )
    return incoming


def pull_product(
    reverse: CSRGraph, frontier: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Pull product ``Aᵀ · F`` on rows ``cand``: OR-gather over their in-edges.

    Each candidate OR-reduces its in-neighbours' frontier words
    (``reverse`` is the transpose graph); row *i* of the result belongs
    to ``cand[i]``.

    This is :func:`pull_runs` with one run per row: it gathers in
    cache-sized blocks, and when the candidates hold at least half the
    in-edges it reads the reverse CSR as contiguous ranges instead of
    building an edge list."""
    lengths = reverse.degrees[cand]
    return pull_runs(reverse, frontier, cand, lengths[:, np.newaxis])[:, 0]


def pull_runs(
    reverse: CSRGraph, frontier: np.ndarray, cand: np.ndarray, runs: np.ndarray
) -> np.ndarray:
    """The pull product on rows ``cand``, one OR per run of in-edges.

    ``runs`` is ``(len(cand), m)``: row *i*'s in-edges, in reverse-CSR
    order, split into *m* consecutive runs (a pod splits them by the
    member owning each in-neighbour). The result is
    ``(len(cand), m, words)``, one OR-reduced frontier row per run.
    ``cand`` must be sorted and distinct.

    Two gathers, both in blocks of about :data:`_BLOCK_WORDS` gathered
    words, so a block's frontier rows stay in cache while
    ``reduceat`` folds them (the temporaries of a whole-level gather
    reach ~100 MB at 16 words on rmat:15):

    * **dense** — when the candidates hold at least half the reverse
      in-edges, each block is one contiguous slice of
      ``reverse.col_indices``, from the block's first candidate up to
      the next block's. The in-edges of the rows between candidates
      reduce into a discarded extra run per row. No edge index list is
      built;
    * **sparse** — otherwise, each block gathers only its candidates'
      adjacency (:func:`~repro.xbfs.common.gather_adjacency`).

    The frontier rows are picked with ``np.take`` (see
    :func:`push_product`).
    """
    cand = np.asarray(cand, dtype=np.int64)
    runs = np.asarray(runs, dtype=np.int64)
    words = frontier.shape[1]
    m = runs.shape[1]
    out = np.zeros((cand.size, m, words), dtype=_WORD)
    lengths = runs.sum(axis=1)
    total = int(lengths.sum())
    if total == 0:
        return out
    dense = 2 * total >= reverse.num_edges
    if dense:
        # One pass from the first candidate's in-edges to the last's:
        # row i's extra run holds the rows up to the next candidate.
        starts = reverse.row_offsets[cand]
        bounds = np.append(starts, starts[-1] + lengths[-1])
        runs = np.column_stack([runs, np.diff(bounds) - lengths])
    ends = np.cumsum(runs.sum(axis=1))
    step = max(1, _BLOCK_WORDS // words)
    cuts = np.searchsorted(ends, np.arange(step, int(ends[-1]), step)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, cand.size]):
        if lo == hi:
            continue
        if dense:
            cols = reverse.col_indices[bounds[lo]:bounds[hi]]
        else:
            cols = gather_adjacency(reverse, cand[lo:hi])
        block = segment_or_rows(
            np.take(frontier, cols, axis=0), runs[lo:hi].ravel()
        ).reshape(hi - lo, -1, words)
        out[lo:hi] = block[:, :m]
    return out


def pull_candidates(graph: CSRGraph, missing: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows a pull product gathers, and the in-edges it scans.

    The rows are every row of ``missing`` (``¬visited``) with a bit
    set."""
    cand = occupied_rows(missing)
    return cand, int(graph.reverse().degrees[cand].sum())


def fresh_mask(incoming: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """The masked assign of the Boolean semiring: ``incoming ⊙ ¬visited``."""
    return incoming & ~visited


def occupied_rows(bitmap: np.ndarray) -> np.ndarray:
    """Indices of rows with at least one bit set (int64).

    ORs the word columns together first: a reduction along the short
    word axis costs several times more per row than ``words`` strided
    column ORs.
    """
    union = bitmap[:, 0]
    for w in range(1, bitmap.shape[1]):
        union = union | bitmap[:, w]
    return np.flatnonzero(union).astype(np.int64)


def popcount_rows(bitmap: np.ndarray) -> np.ndarray:
    """Set bits per row (int64) — how many sources each row carries
    (summed column by column, like :func:`occupied_rows`)."""
    counts = np.bitwise_count(bitmap[:, 0]).astype(np.int64)
    for w in range(1, bitmap.shape[1]):
        counts += np.bitwise_count(bitmap[:, w])
    return counts


def pack_rows(bools: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, num_sources)`` bool matrix into bitmap words."""
    bools = np.asarray(bools, dtype=bool)
    rows, k = bools.shape
    words = words_for(max(k, 1))
    bytes_ = np.packbits(bools, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : bytes_.shape[1]] = bytes_
    return padded.view("<u8").astype(_WORD, copy=False)


def _unpack_bits_u8(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows to ``(rows, num_sources)`` uint8 zeros/ones."""
    as_bytes = np.ascontiguousarray(packed.astype("<u8", copy=False)).view(
        np.uint8
    )
    return np.unpackbits(as_bytes, axis=1, count=num_sources, bitorder="little")


def unpack_rows(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows back to a ``(rows, num_sources)`` bool matrix."""
    return _unpack_bits_u8(packed, num_sources).astype(bool)


def counter_add(planes: list[np.ndarray], inc: np.ndarray) -> None:
    """Bit-sliced increment: add 1 to every counter whose bit is set in
    ``inc``.

    ``planes[j]`` holds bit *j* of a per-(vertex, source) binary
    counter, so a batch of 2^j-bounded counts costs *j* bitmap planes
    instead of a dense integer matrix. One call is a carry-save adder
    sweep — word-wide AND/XOR per plane, appending a new plane when the
    carry overflows the current width. Amortized over a traversal the
    sweep touches O(1) planes per level, which is what lets the engine
    track every source's BFS level without ever unpacking a
    ``(sources × vertices)`` matrix inside the level loop.
    """
    carry = inc
    for plane in planes:
        if not carry.any():
            return
        next_carry = plane & carry
        plane ^= carry
        carry = next_carry
    if carry.any():
        planes.append(carry.copy())


def counter_levels(
    planes: list[np.ndarray],
    num_vertices: int,
    num_sources: int,
    *,
    depth: int,
) -> np.ndarray:
    """Decode bit-sliced counters into source-major int32 levels.

    The result is a C-contiguous ``(num_sources, num_vertices)``
    matrix, decoded once per run with one unpack per plane. Each
    source's row is contiguous, so the serving layer's per-source reads
    and copies are not strided.

    With :func:`counter_add` fed ``¬visited`` once per level, the
    decoded count *is* each pair's BFS level: a vertex first visited at
    level *t* was missing from exactly the *t* pre-states before it.
    A traversal of ``depth`` levels reaches nothing deeper than level
    ``depth - 1``, so a count of exactly ``depth`` marks a pair that
    never connected; it decodes to -1.

    The accumulation runs vertex-major — the planes' own layout, so
    every pass is over contiguous memory — as plain weighted integer
    adds of the unpacked 0/1 bytes (an order of magnitude cheaper than
    masked ``where`` stores; the -1 fix-up is one more weighted add),
    and pays a single widening, cache-blocked transpose to the
    source-major layout at the very end. An int16 accumulator covers
    any depth 15 planes can encode; deeper traversals (degenerate
    path-like graphs) fall back to int32.
    """
    acc_dtype = np.int32 if len(planes) > 15 else np.int16
    acc = np.zeros((num_vertices, num_sources), dtype=acc_dtype)
    for j, plane in enumerate(planes):
        bits = _unpack_bits_u8(plane, num_sources)
        if j == 0:
            acc += bits
        elif j < 8:
            np.left_shift(bits, j, out=bits)
            acc += bits
        else:
            acc += bits.astype(acc_dtype) << acc_dtype(j)
    # depth + (-1 - depth) = -1, and -1 - depth still fits acc_dtype.
    acc += (acc == depth) * acc_dtype(-1 - depth)
    levels = np.empty((num_sources, num_vertices), dtype=np.int32)
    for lo in range(0, num_vertices, _TRANSPOSE_ROWS):
        levels[:, lo:lo + _TRANSPOSE_ROWS] = acc[lo:lo + _TRANSPOSE_ROWS].T
    return levels


@dataclass
class BitmapBatchResult(DecisionAudit):
    """Outcome of one multi-source run on the bitmap level loop."""

    sources: np.ndarray
    #: ``levels[i]`` is source *i*'s level array (-1 unreachable) —
    #: bit-identical to a solo :meth:`XBFS.run` from ``sources[i]``.
    #: C-contiguous, so each source's row is one contiguous run.
    levels: np.ndarray
    elapsed_ms: float
    #: Edges the modelled level kernels examined, as each engine's
    #: charge counts them.
    union_edges: int
    #: Σ over sources of the edges a solo run would expand.
    solo_edges: int
    depth: int
    #: Per-level :class:`~repro.xbfs.classifier.Decision`: the strategy
    #: label plus the rule and signals behind the level's host product
    #: — the audit plane's raw material.
    decisions: tuple = ()
    paid_warmup: bool = False
    #: Levels whose launches were replayed after injected device faults
    #: (0 on a fault-free run).
    level_restarts: int = 0

    @property
    def directions(self) -> tuple:
        """Strategy label per level (the ``bfs.level`` span's)."""
        return tuple(d.strategy for d in self.decisions)

    @property
    def sharing_factor(self) -> float:
        """How many solo edge-expansions each examined edge stood in
        for (higher = more sharing)."""
        return self.solo_edges / self.union_edges if self.union_edges else 1.0

    @property
    def traversed_edges(self) -> int:
        return self.solo_edges

    @cached_property
    def _slot_of(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.sources.tolist())}

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of one batched ``source``."""
        slot = self._slot_of.get(source)
        if slot is None:
            raise TraversalError(f"source {source} is not in this batch")
        return self.levels[slot]

    @property
    def gteps(self) -> float:
        """Aggregate throughput credited the Graph500 way: every
        source's traversal counts, over the shared wall time."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.solo_edges / (self.elapsed_ms * 1e-3) / 1e9


class BitmapBatchEngine:
    """Construction and level loop shared by the bitmap multi-source
    engines.

    A subclass names itself (:attr:`ENGINE`, the tag on spans, launches
    and errors) and implements :meth:`_plan` and :meth:`_charge`; its
    entry point validates the batch and calls :meth:`_traverse`. The
    device (one simulated GCD), the host product and the result type
    are hooks too (:meth:`_device`, :meth:`_product`, :meth:`_result`).
    """

    ENGINE = ""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        #: Optional :class:`~repro.telemetry.tracer.Tracer`; runs emit
        #: ``bfs.run``/``bfs.level`` spans like the solo driver, tagged
        #: ``engine=ENGINE``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional fault injector; a faulted level replays its launches
        #: (nothing is committed before they sync).
        self.injector = injector
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        self.recovery = recovery or DEFAULT_RECOVERY
        self._gcd: GCD | None = None
        #: Sources in the run in flight.
        self._width = 0

    def _plan(
        self,
        level: int,
        active: np.ndarray,
        frontier_edges: int,
        missing: np.ndarray,
        prev_active: int,
        prev: Decision | None,
    ) -> tuple[Decision, np.ndarray | None]:
        """Pick one level's host product: ``(decision, cand)``.

        ``active`` holds the frontier's occupied rows and
        ``frontier_edges`` their out-degree sum; ``missing`` is
        ``¬visited``. ``prev_active``/``prev`` describe the previous
        level. ``cand`` is ``None`` for push, or the rows to pull
        (every row of ``missing`` that is occupied)."""
        raise NotImplementedError

    def _charge(
        self,
        gcd,
        level: int,
        active: np.ndarray,
        cand: np.ndarray | None,
        fresh: np.ndarray,
        newly: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """Issue one level's launches on ``gcd`` (the run's device)
        through :meth:`_launch`; return the edges they examined.
        ``cand`` is the plan's, ``fresh`` the level's discoveries,
        ``newly`` its occupied rows and ``counts`` their popcounts.
        Replayed as a whole on a device fault, so it must not mutate
        traversal state."""
        raise NotImplementedError

    def _launch(
        self,
        gcd,
        name: str,
        level: int,
        rows: np.ndarray,
        fresh: np.ndarray,
        newly: np.ndarray,
        counts: np.ndarray,
        *,
        pull: bool = False,
        span: int | None = None,
        runs: tuple[np.ndarray, np.ndarray] | None = None,
        recv_bytes: int = 0,
    ) -> int:
        """Issue launch ``name`` on ``gcd`` for one level; return the
        edges it examined. Every bitmap engine and pod member builds
        its launches here (MODEL.md §6).

        Push expands the frontier ``rows`` along their out-edges and
        probes each destination's status words, which fuses in the
        ⊙¬visited mask; pull scans the visited words of ``span`` rows
        (default: every vertex) and gathers the frontier words of the
        candidate ``rows``' in-edges. ``runs`` is the ``(starts,
        lengths)`` of adjacency scanned per row (default: whole rows).
        The same launch writes the output of the ``newly`` rows: their
        status and next-frontier words, and their new levels as one run
        of popcount (``counts``) × 4 B each in a vertex-major matrix with
        one int32 slot per source. A pod member also reads ``recv_bytes``
        of receive buffers (:func:`row_bytes`)."""
        csr = self.graph.reverse() if pull else self.graph
        n = self.graph.num_vertices
        words = fresh.shape[1]
        line = self.device.cache_line_bytes
        span = n if span is None else span
        starts, lengths = runs or (csr.row_offsets[rows], csr.degrees[rows])
        edges = int(lengths.sum())
        r, f = int(rows.size), int(newly.size)
        written = int(counts.sum())
        if pull:
            first = seq_read("visited_bitmap", span * words, 8)
            last = rand_read("frontier_bitmap", edges * words, n * words, 8)
        else:
            first = seq_read("frontier_bitmap", r * words, 8)
            last = rand_read("bit_status", edges * words, span * words, 8)
        gcd.launch(
            name,
            strategy=self.ENGINE,
            level=level,
            streams=[
                first,
                rand_read("beg_pos", 2 * r, 2 * r, 8),
                segmented_read(
                    "col_idx_rev" if pull else "col_idx", edges,
                    segment_lines_touched(starts, lengths, element_bytes=4, line_bytes=line),
                ),
                last,
                rand_write("bit_status", f * words, f * words, 8),
                seq_write("next_frontier", f * words, 8),
                AccessStream(
                    "levels", 4, written, written,
                    Pattern.SEQUENTIAL, is_write=True,
                    exact_lines=segment_lines_touched(
                        newly * self._width, counts, element_bytes=4, line_bytes=line
                    ),
                ),
                seq_read("recv_buffers", recv_bytes, 1),
            ],
            work=ComputeWork(flat_ops=float((edges + r) * words)),
            work_items=r,
            bottom_up=pull,
        )
        return edges

    def _device(self):
        """The device a run drives, reset for the run, and whether the
        run pays its first-launch warm-up.

        One simulated GCD here, kept warm across runs; it is anything
        with ``elapsed_ms``, ``sync()`` and ``quiesce()`` (a pod drives
        its member GCDs as one bulk-synchronous device)."""
        if self._gcd is None:
            self._gcd = GCD(
                self.device,
                self.config,
                injector=self.injector,
                tracer=self.tracer if self.tracer.enabled else None,
            )
        else:
            self._gcd.reset(keep_warm=True)
        return self._gcd, not self._gcd._warm

    def _product(
        self,
        frontier: np.ndarray,
        active: np.ndarray,
        cand: np.ndarray | None,
        missing: np.ndarray,
    ) -> np.ndarray:
        """One level's discoveries ``(Aᵀ · F) ⊙ ¬visited``: the push
        product along the ``active`` rows' out-edges, or (``cand`` set)
        the pull product on rows ``cand``."""
        if cand is None:
            return push_product(self.graph, frontier, active) & missing
        fresh = np.zeros_like(frontier)
        fresh[cand] = pull_product(
            self.graph.reverse(), frontier, cand
        ) & np.take(missing, cand, axis=0)
        return fresh

    def _result(self, **fields) -> BitmapBatchResult:
        """The run's result from the loop's ``fields``."""
        return BitmapBatchResult(**fields)

    def _traverse(self, sources: np.ndarray) -> BitmapBatchResult:
        """Run the level loop from validated, distinct ``sources``."""
        k = self._width = int(sources.size)
        gcd, paid_warmup = self._device()
        with self.tracer.span(
            "bfs.run",
            clock=lambda: gcd.elapsed_ms,
            engine=self.ENGINE,
            sources=k,
        ):
            return self._levels(gcd, sources, k, paid_warmup=paid_warmup)

    def _levels(
        self, gcd, sources: np.ndarray, k: int, *, paid_warmup: bool
    ) -> BitmapBatchResult:
        graph = self.graph
        tracer = self.tracer
        n = graph.num_vertices
        degs = graph.degrees
        full = full_row_mask(k)[np.newaxis, :]
        frontier = make_bitmap(n, k)
        set_source_bits(frontier, sources)
        visited = frontier.copy()
        #: Bit-sliced per-(vertex, source) level counter, fed ¬visited
        #: as each level commits, so a pair's decoded count is the
        #: number of pre-states it was missing from — its BFS level.
        #: Levels never materialize inside the loop; the
        #: (sources × vertices) matrix is decoded once at the end.
        planes: list[np.ndarray] = []

        level = 0
        union_edges = 0
        solo_edges = 0
        level_restarts = 0
        decisions: list[Decision] = []
        prev_active = 1
        active = occupied_rows(frontier)
        # Each frontier row's popcount, counted once when it is found:
        # its level writes, then its weight in the solo-equivalent edges.
        bits = popcount_rows(np.take(frontier, active, axis=0))
        while active.size:
            missing = fresh_mask(full, visited)
            frontier_edges = int(degs[active].sum())
            decision, cand = self._plan(
                level, active, frontier_edges, missing, prev_active,
                decisions[-1] if decisions else None,
            )
            with tracer.span(
                "bfs.level",
                clock=lambda: gcd.elapsed_ms,
                level=level,
                strategy=decision.strategy,
                frontier=int(active.size),
            ):
                fresh = self._product(frontier, active, cand, missing)
                newly = occupied_rows(fresh)
                counts = popcount_rows(np.take(fresh, newly, axis=0))

                def attempt() -> int:
                    examined = self._charge(gcd, level, active, cand, fresh, newly,
                                            counts)
                    gcd.sync()
                    return examined

                examined, restarts = replay_on_fault(
                    attempt,
                    gcd,
                    self.recovery,
                    tracer,
                    what=f"{self.ENGINE} level {level}",
                    level=level,
                )
            # Commit the synced level. Solo-equivalent accounting is
            # product-independent: a solo run would expand each
            # (source, vertex) pair of the frontier separately.
            counter_add(planes, missing)
            visited |= fresh
            union_edges += examined
            solo_edges += int((bits * degs[active]).sum())
            level_restarts += restarts
            decisions.append(decision)
            prev_active = int(active.size)
            frontier, active, bits = fresh, newly, counts
            level += 1

        return self._result(
            sources=sources,
            levels=counter_levels(planes, n, k, depth=level),
            elapsed_ms=gcd.elapsed_ms,
            union_edges=union_edges,
            solo_edges=solo_edges,
            depth=level,
            decisions=tuple(decisions),
            paid_warmup=paid_warmup,
            level_restarts=level_restarts,
        )
