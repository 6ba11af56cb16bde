"""Batched, bit-packed Pauli-frame sampling engines (the Monte-Carlo hot path).

The per-shot :class:`~repro.sim.frame.ProtocolRunner` walks the instruction
list once per fault configuration, paying Python-interpreter cost for every
instruction of every shot. But the Pauli-frame semantics are *F2-linear*:
within one segment (prep, a verification layer, or a correction branch —
the units between which the Fig. 3 decision tree branches) the outgoing
frame and every recorded measurement flip are XORs of

* a fixed linear image of the incoming frame, and
* a fixed signature per injected fault draw.

:class:`CompiledSegment` computes both in one backward symbolic sweep over
the segment: the end-of-segment image of every frame component inserted
after every instruction. The image before the first instruction is the
segment's linear map (one CSR, applied with a gather and a ``reduceat``);
the images at each fault location give every draw's signature.
:class:`CompiledProtocol` compiles every segment once and keeps a CSR
table of signature columns for every ``(location, draw)`` unit.

:class:`BatchedSampler` then executes *all shots at once*: the frame of
shot ``s`` lives in bit ``s`` of packed ``uint64`` words
(:mod:`repro.sim.bitplane`), so one segment application is a handful of
word-wide XOR reductions instead of ``shots × instructions`` dict updates.
Branch divergence is handled with per-shot masks — each branch segment is
applied only to the shots whose verification signature selects it, which
is exactly the reference runner's control flow evaluated in parallel. The
judge reads the packed data plane directly.

Given the same per-shot injection dicts, the batched engine reproduces the
reference runner **bit-for-bit**: same data frame, same recorded flips,
same branches, same termination — the cross-validation suite asserts this
on enumerated and random fault sets. :class:`ReferenceSampler` wraps the
per-shot runner behind the same interface so every consumer can switch
engines with one argument (``engine="batched" | "kernel" | "reference" |
"auto"``). :class:`KernelSampler` is the raw-speed tier: the same
compiled form executed through the fused bit-plane kernels of
:mod:`repro.sim.kernels` (numba when importable, NumPy twins otherwise),
bit-identical to the batched engine on every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import (
    CX,
    ConditionalPauli,
    H,
    MeasureX,
    MeasureZ,
    ResetX,
    ResetZ,
)
from ..core.protocol import DeterministicProtocol
from .bitplane import WORD as _WORD
from .bitplane import num_words as _num_words
from .bitplane import pack_shots, row_csr, unpack_shots, xor_rows
from .frame import Injection, ProtocolRunner, RunResult, protocol_locations
from .logical import LogicalJudge
from .noise import draw_components, draw_counts, draw_tables, materialize_stratum

__all__ = [
    "CompiledSegment",
    "CompiledProtocol",
    "BatchResult",
    "BatchedSampler",
    "KernelSampler",
    "ReferenceSampler",
    "make_sampler",
    "resolve_engine_name",
]

_ONE = np.uint64(1)


# -- bit packing --------------------------------------------------------------


def _pack_shot_indices(shots: Sequence[int], words: int) -> np.ndarray:
    """Shot index list -> (words,) uint64 mask with those bits set."""
    idx = np.asarray(shots, dtype=np.uint64)
    mask = np.zeros(words, dtype=_WORD)
    np.bitwise_or.at(mask, (idx >> np.uint64(6)).astype(np.intp), _ONE << (idx & np.uint64(63)))
    return mask


def _unpack_words(packed: np.ndarray, num_shots: int) -> np.ndarray:
    """(words,) uint64 -> (S,) uint8 of the low ``num_shots`` bits."""
    return unpack_shots(packed[None, :], num_shots)[0]


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal consecutive entries (non-empty
    keys; a run ends where any key changes)."""
    change = np.empty(keys[0].size, dtype=bool)
    change[0] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=change[1:])
    for key in keys[1:]:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


# -- compilation --------------------------------------------------------------


class CompiledSegment:
    """F2-linear form of one protocol segment, from one backward sweep.

    Outgoing components are the x wires (``0 .. W-1``), the z wires
    (``W .. 2W-1``) and each measured bit (``2W + slot``, ``bit_names``
    in measurement order). ``images[i, c]`` is the end-of-segment image,
    a row over the outgoing components packed 8 per byte (XOR commutes
    with packing; :meth:`unpack` opens rows), of frame component ``c``
    inserted right after instruction ``i`` (row ``2W`` is all zero, the
    padding of :meth:`CompiledProtocol` gathers).

    The image before the first instruction is the segment's own map,
    kept transposed as a CSR (``indptr``, ``indices``) over incoming
    frame components: outgoing component ``o`` is the XOR of the listed
    ones, and an empty row lists component ``2W``, a zero plane the
    engine appends to the incoming frame.
    """

    def __init__(self, circuit: Circuit, num_wires: int):
        self.num_wires = num_wires
        instructions = circuit.instructions
        measured = [
            index
            for index, ins in enumerate(instructions)
            if isinstance(ins, (MeasureZ, MeasureX))
        ]
        self.bit_names = [instructions[index].bit for index in measured]
        self.flip_slot = np.full(len(instructions), -1, dtype=np.intp)
        self.flip_slot[measured] = np.arange(len(measured))
        frame = 2 * num_wires
        post = np.zeros((frame + 1, frame + len(measured)), dtype=bool)
        post[np.arange(frame), np.arange(frame)] = True
        self.num_components = post.shape[1]
        images = np.empty((len(instructions),) + post.shape, dtype=bool)
        for index in range(len(instructions) - 1, -1, -1):
            images[index] = post
            ins = instructions[index]
            # Pull each image back through the instruction: a component
            # inserted before it reaches what its forward image reaches.
            if isinstance(ins, CX):
                post[ins.control] ^= post[ins.target]
                post[num_wires + ins.target] ^= post[num_wires + ins.control]
            elif isinstance(ins, H):
                q = ins.qubit
                post[[q, num_wires + q]] = post[[num_wires + q, q]]
            elif isinstance(ins, (ResetZ, ResetX)):
                post[[ins.qubit, num_wires + ins.qubit]] = False
            elif isinstance(ins, MeasureZ):
                post[ins.qubit, frame + self.flip_slot[index]] ^= True
            elif isinstance(ins, MeasureX):
                post[num_wires + ins.qubit, frame + self.flip_slot[index]] ^= True
            elif not isinstance(ins, ConditionalPauli):
                raise TypeError(f"unknown instruction {ins!r}")
        self.images = np.packbits(images, axis=-1)
        self.indptr, self.indices = row_csr(post[:frame].T)

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """Packed image rows -> bool rows over the outgoing components."""
        return np.unpackbits(rows, axis=-1, count=self.num_components).view(bool)

    def injection_columns(self, index: int, injection: Injection) -> np.ndarray:
        """Outgoing component ids flipped by ``injection`` after
        instruction ``index``: the XOR of its components' images."""
        image = self.images[index]
        row = np.zeros(image.shape[1], dtype=np.uint8)
        for wire, letter in injection.paulis:
            if letter in "XY":
                row ^= image[wire]
            if letter in "ZY":
                row ^= image[self.num_wires + wire]
        row = self.unpack(row)
        if injection.flip:
            if self.flip_slot[index] < 0:
                raise ValueError(f"flip injected at unmeasured instruction {index}")
            row[2 * self.num_wires + self.flip_slot[index]] ^= True
        return np.flatnonzero(row)


class CompiledProtocol:
    """All segments of a protocol in compiled F2-linear form.

    Also holds the static location universe, the per-location fault draw
    tables, and the signature table of every ``(location, draw)`` unit:
    unit ``unit_offset[loc] + draw`` flips the outgoing components
    ``unit_cols[unit_ptr[u]:unit_ptr[u + 1]]`` of segment
    ``segment_keys[unit_segment[u]]``. Locations (hence units) are
    contiguous per segment.
    """

    def __init__(self, protocol: DeterministicProtocol):
        self.protocol = protocol
        self.num_wires = protocol.num_wires
        self.segments: dict[tuple, CompiledSegment] = {}
        self._add(("prep",), protocol.prep_segment)
        for li, layer in enumerate(protocol.layers):
            self._add(("verif", li), layer.circuit)
            for signature, branch in layer.branches.items():
                self._add(("branch", li, signature), branch.circuit)
        self.locations = protocol_locations(protocol)
        self.draw_tables = draw_tables(self.locations)
        counts = draw_counts(self.locations)
        self.unit_offset = np.concatenate(([0], np.cumsum(counts)))
        codes, flips = draw_components(self.locations)
        frame = 2 * self.num_wires
        # Component ids of each unit's inserted Paulis; -1 pads to the
        # zero image row ``frame``.
        components = np.where(
            codes < 0, frame, (codes >> 1) + (codes & 1) * self.num_wires
        )
        self.segment_keys: list[tuple] = []
        segment_of_loc = np.empty(len(self.locations), dtype=np.intp)
        for loc, ((segment_key, _), _, _) in enumerate(self.locations):
            if not self.segment_keys or self.segment_keys[-1] != segment_key:
                self.segment_keys.append(segment_key)
            segment_of_loc[loc] = len(self.segment_keys) - 1
        self.unit_segment = np.repeat(segment_of_loc, counts)
        instruction = np.repeat(
            [index for (_, index), _, _ in self.locations], counts
        ).astype(np.intp)
        lengths = [np.zeros(0, dtype=np.int64)]
        columns = [np.zeros(0, dtype=np.intp)]
        bounds = np.searchsorted(
            self.unit_segment, np.arange(len(self.segment_keys) + 1)
        )
        for s, segment_key in enumerate(self.segment_keys):
            lo, hi = bounds[s], bounds[s + 1]
            segment = self.segments[segment_key]
            at = instruction[lo:hi]
            rows = segment.unpack(
                np.bitwise_xor.reduce(
                    segment.images[at[:, None], components[lo:hi]], axis=1
                )
            )
            flipped = np.flatnonzero(flips[lo:hi])
            rows[flipped, frame + segment.flip_slot[at[flipped]]] ^= True
            lengths.append(rows.sum(axis=1))
            columns.append(np.nonzero(rows)[1])
        self.unit_ptr = np.concatenate(([0], np.cumsum(np.concatenate(lengths))))
        self.unit_cols = np.concatenate(columns).astype(np.intp)

    def _add(self, key: tuple, circuit: Circuit) -> None:
        self.segments[key] = CompiledSegment(circuit, self.num_wires)


# -- batched execution --------------------------------------------------------


@dataclass(frozen=True)
class _SegmentFaults:
    """One segment's fault batch in applied form.

    ``masks[f]`` selects the shots carrying fault ``f``; ``columns`` is the
    concatenation of every fault's signature component ids (see
    :class:`CompiledProtocol`) with ``counts[f]`` entries per fault —
    exactly the arrays the XOR-reduceat application consumes.
    """

    masks: np.ndarray  # (faults, words) uint64
    columns: np.ndarray  # (nnz,) intp — concatenated signature components
    counts: np.ndarray  # (faults,) intp


@dataclass
class BatchResult:
    """Unpacked outcomes of a batch of protocol executions.

    Mirrors :class:`~repro.sim.frame.RunResult` field-for-field across the
    shot axis; :meth:`result` rebuilds the per-shot view for
    cross-validation against the reference runner.

    The batched engine additionally attaches the *packed* residual planes
    (``x_words`` / ``z_words``: data wire-major ``(n, words)`` uint64, bit
    ``s`` = shot ``s``), which feed the vectorized residual-weight API
    without a per-shot round trip.
    """

    num_shots: int
    n: int
    data_x: np.ndarray  # (shots, n) uint8
    data_z: np.ndarray  # (shots, n) uint8
    terminated: np.ndarray  # (shots,) bool
    flips: dict[str, np.ndarray] = field(default_factory=dict)  # bit -> (shots,) uint8
    branches_taken: list[list[tuple[int, tuple, tuple]]] = field(default_factory=list)
    x_words: np.ndarray | None = None  # (n, words) uint64 packed plane
    z_words: np.ndarray | None = None

    def flip_of(self, shot: int, bit: str) -> int:
        values = self.flips.get(bit)
        return int(values[shot]) if values is not None else 0

    def residual_weights(self, reducer, plane: str = "x") -> np.ndarray:
        """Stabilizer-reduced residual weight per shot (vectorized).

        ``reducer`` is a :class:`~repro.pauli.group.CosetReducer` (from
        ``core.errors.error_reducer``); the batch reduction runs once per
        *distinct* residual pattern, not per shot.
        """
        if plane == "x":
            data = self.data_x
        elif plane == "z":
            data = self.data_z
        else:
            raise ValueError(f"plane must be 'x' or 'z', got {plane!r}")
        return reducer.coset_weights_dedup(np.asarray(data, dtype=np.uint8))

    def heavy_mask(self, x_reducer, z_reducer, t: int) -> np.ndarray:
        """Shots whose residual exceeds weight ``t`` in either plane."""
        return (self.residual_weights(x_reducer, "x") > t) | (
            self.residual_weights(z_reducer, "z") > t
        )

    def result(self, shot: int) -> RunResult:
        """Per-shot view, shaped like ``ProtocolRunner.run`` output."""
        return RunResult(
            data_x=self.data_x[shot].copy(),
            data_z=self.data_z[shot].copy(),
            flips={
                bit: int(values[shot])
                for bit, values in self.flips.items()
                if values[shot]
            },
            branches_taken=list(self.branches_taken[shot]),
            terminated_early=bool(self.terminated[shot]),
        )


class _PackedState:
    """Mutable packed execution state of one batch."""

    def __init__(self, num_wires: int, num_shots: int):
        self.num_shots = num_shots
        self.words = _num_words(num_shots)
        self.x = np.zeros((num_wires, self.words), dtype=_WORD)
        self.z = np.zeros((num_wires, self.words), dtype=_WORD)
        self.bits: dict[str, np.ndarray] = {}
        self.alive = pack_shots(np.ones((num_shots, 1), dtype=np.uint8))[0]
        self.terminated = np.zeros(self.words, dtype=_WORD)
        self.branch_records: list[tuple[int, tuple, tuple, np.ndarray]] = []

    def bit(self, name: str) -> np.ndarray:
        values = self.bits.get(name)
        if values is None:
            values = np.zeros(self.words, dtype=_WORD)
        return values


class BatchedSampler:
    """Executes whole strata of fault configurations as packed word ops.

    Parameters
    ----------
    protocol:
        The synthesized protocol; compiled once at construction.
    judge:
        Failure judge (defaults to :class:`LogicalJudge` of the code).
    """

    name = "batched"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        self.protocol = protocol
        self.judge = judge if judge is not None else LogicalJudge(protocol.code)
        self.compiled = CompiledProtocol(protocol)
        self.n = protocol.code.n
        self.locations = self.compiled.locations

    # -- public API ----------------------------------------------------------

    def run(self, injections_per_shot: Sequence[dict]) -> BatchResult:
        """Execute one batch; returns full per-shot observables."""
        state = self._execute(injections_per_shot)
        num_shots = state.num_shots
        data_x = self._unpack_data(state.x, num_shots)
        data_z = self._unpack_data(state.z, num_shots)
        flips = {
            bit: _unpack_words(values, num_shots)
            for bit, values in state.bits.items()
        }
        branches: list[list[tuple[int, tuple, tuple]]] = [[] for _ in range(num_shots)]
        for li, b, f, mask in state.branch_records:
            for shot in np.nonzero(_unpack_words(mask, num_shots))[0]:
                branches[shot].append((li, b, f))
        return BatchResult(
            num_shots=num_shots,
            n=self.n,
            data_x=data_x,
            data_z=data_z,
            terminated=_unpack_words(state.terminated, num_shots).astype(bool),
            flips=flips,
            branches_taken=branches,
            x_words=state.x[: self.n].copy(),
            z_words=state.z[: self.n].copy(),
        )

    def failures(self, injections_per_shot: Sequence[dict]) -> np.ndarray:
        """Logical-failure verdict per shot (the Monte-Carlo fast path)."""
        state = self._execute(injections_per_shot)
        return self.judge.failure_mask(state.x[: self.n], state.num_shots)

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        """Verdicts for an indexed stratum batch, skipping dicts entirely.

        ``loc_idx`` / ``draw_idx`` are ``(shots, k)`` arrays from
        :func:`repro.sim.noise.sample_injections_stratum` (or the masked
        variable-weight arrays of ``sample_injections_model_batch``, where
        ``loc_idx == -1`` slots carry no fault); the grouping into
        per-(location, draw) shot masks happens with one stable sort instead
        of ``shots`` dict traversals.
        """
        num_shots = loc_idx.shape[0]
        grouped = self._group_indexed(loc_idx, draw_idx, _num_words(num_shots))
        state = self._execute_grouped(grouped, num_shots)
        return self.judge.failure_mask(state.x[: self.n], num_shots)

    def residual_weights(
        self, injections_per_shot: Sequence[dict], x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot stabilizer-reduced residual weights (both planes).

        The certificate fast path (Definition 1): execute the whole batch
        packed, then reduce each *distinct* residual pattern once per plane.
        Returns ``(x_weights, z_weights)``, both ``(shots,)`` int64.
        """
        state = self._execute(injections_per_shot)
        return self._state_residual_weights(state, x_reducer, z_reducer)

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indexed-batch variant of :meth:`residual_weights`."""
        num_shots = loc_idx.shape[0]
        if num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        grouped = self._group_indexed(loc_idx, draw_idx, _num_words(num_shots))
        state = self._execute_grouped(grouped, num_shots)
        return self._state_residual_weights(state, x_reducer, z_reducer)

    # -- execution -----------------------------------------------------------

    def _state_residual_weights(
        self, state: "_PackedState", x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        if state.num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data_x = self._unpack_data(state.x, state.num_shots)
        data_z = self._unpack_data(state.z, state.num_shots)
        return (
            x_reducer.coset_weights_dedup(data_x),
            z_reducer.coset_weights_dedup(data_z),
        )

    def _group_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, words: int
    ) -> dict[tuple, _SegmentFaults]:
        """Indexed stratum batch -> per-segment packed fault batches."""
        compiled = self.compiled
        num_shots, k = loc_idx.shape
        grouped: dict[tuple, _SegmentFaults] = {}
        flat_loc = loc_idx.ravel()
        valid = np.flatnonzero(flat_loc >= 0)  # masked variable-weight slots
        if valid.size == 0:
            return grouped
        units = compiled.unit_offset[flat_loc[valid]] + draw_idx.ravel()[valid]
        # Sort by (unit, shot) and cancel even multiplicities: a shot
        # carrying the identical (location, draw) twice composes to the
        # identity under the XOR semantics (correlated pair sites can
        # overlap a base fault like that; uniform strata never repeat a
        # location within a shot).
        keys = np.sort(units * num_shots + valid // k)
        first = _run_starts(keys)
        odd = np.diff(first, append=keys.size) % 2 == 1
        units, shots = np.divmod(keys[first[odd]], num_shots)
        if units.size == 0:
            return grouped
        # Shot masks: OR each (unit, word) run of shot bits in one reduceat.
        word = shots >> 6
        group_starts = _run_starts(units)
        runs = _run_starts(units, word)
        group_of = np.zeros(units.size, dtype=np.intp)
        group_of[group_starts[1:]] = 1
        np.cumsum(group_of, out=group_of)
        group_units = units[group_starts]
        masks = np.zeros((group_units.size, words), dtype=_WORD)
        masks[group_of[runs], word[runs]] = np.bitwise_or.reduceat(
            np.left_shift(_ONE, (shots & 63).astype(np.uint64)), runs
        )
        # Each group's signature columns, gathered from the unit table.
        lo = compiled.unit_ptr[group_units]
        counts = compiled.unit_ptr[group_units + 1] - lo
        ends = np.cumsum(counts)
        columns = compiled.unit_cols[
            np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])
        ]
        segment_of = compiled.unit_segment[group_units]
        bounds = np.append(_run_starts(segment_of), segment_of.size)
        for a, b in zip(bounds[:-1], bounds[1:]):
            grouped[compiled.segment_keys[segment_of[a]]] = _SegmentFaults(
                masks=masks[a:b],
                columns=columns[ends[a] - counts[a] : ends[b - 1]],
                counts=counts[a:b],
            )
        return grouped

    def _unpack_data(self, packed: np.ndarray, num_shots: int) -> np.ndarray:
        return np.ascontiguousarray(unpack_shots(packed[: self.n], num_shots).T)

    def _group_injections(
        self, injections_per_shot: Sequence[dict], words: int
    ) -> dict[tuple, _SegmentFaults]:
        """Bucket per-shot injections into per-segment packed batches."""
        by_draw: dict[tuple, dict[tuple[int, Injection], list[int]]] = {}
        for shot, injections in enumerate(injections_per_shot):
            for (segment_key, index), injection in injections.items():
                by_draw.setdefault(segment_key, {}).setdefault(
                    (index, injection), []
                ).append(shot)
        grouped: dict[tuple, _SegmentFaults] = {}
        for segment_key, draws in by_draw.items():
            segment = self.compiled.segments[segment_key]
            column_arrays = [
                segment.injection_columns(index, injection)
                for (index, injection) in draws
            ]
            grouped[segment_key] = _SegmentFaults(
                masks=np.stack(
                    [
                        _pack_shot_indices(shots, words)
                        for shots in draws.values()
                    ]
                ),
                columns=np.concatenate(column_arrays)
                if column_arrays
                else np.zeros(0, dtype=np.intp),
                counts=np.asarray(
                    [columns.size for columns in column_arrays],
                    dtype=np.intp,
                ),
            )
        return grouped

    def _execute(self, injections_per_shot: Sequence[dict]) -> _PackedState:
        num_shots = len(injections_per_shot)
        if num_shots == 0:
            return _PackedState(self.compiled.num_wires, num_shots)
        faults = self._group_injections(
            injections_per_shot, _num_words(num_shots)
        )
        return self._execute_grouped(faults, num_shots)

    def _execute_grouped(self, faults: dict, num_shots: int) -> _PackedState:
        state = _PackedState(self.compiled.num_wires, num_shots)
        protocol = self.protocol
        self._apply_segment(state, ("prep",), state.alive, faults)
        for li, layer in enumerate(protocol.layers):
            self._apply_segment(state, ("verif", li), state.alive, faults)
            b_values = [state.bit(bit) for bit in layer.bits]
            f_values = [state.bit(bit) for bit in layer.flag_bits]
            for signature, branch in sorted(layer.branches.items()):
                mask = self._signature_mask(
                    state.alive, b_values, f_values, signature
                )
                if not mask.any():
                    continue
                b, f = signature
                state.branch_records.append((li, b, f, mask))
                self._apply_segment(state, ("branch", li, signature), mask, faults)
                self._apply_recoveries(state, branch, mask)
                if branch.terminate:
                    state.terminated |= mask
                    state.alive &= ~mask
        return state

    @staticmethod
    def _signature_mask(alive, b_values, f_values, signature) -> np.ndarray:
        b, f = signature
        mask = alive.copy()
        for values, want in zip(b_values, b):
            mask &= values if want else ~values
        for values, want in zip(f_values, f):
            mask &= values if want else ~values
        return mask

    def _apply_recoveries(self, state: _PackedState, branch, mask: np.ndarray) -> None:
        syndrome_values = [state.bit(m.bit) for m in branch.measurements]
        target = state.x if branch.recovery_kind == "X" else state.z
        for syndrome, recovery in branch.recoveries.items():
            recovery_mask = mask.copy()
            for values, want in zip(syndrome_values, syndrome):
                recovery_mask &= values if want else ~values
            if not recovery_mask.any():
                continue
            for wire in np.nonzero(recovery)[0]:
                target[wire] ^= recovery_mask

    def _apply_segment(
        self,
        state: _PackedState,
        segment_key: tuple,
        mask: np.ndarray,
        faults: dict,
    ) -> None:
        segment = self.compiled.segments[segment_key]
        frame = 2 * self.compiled.num_wires
        incoming = np.concatenate(
            [state.x, state.z, np.zeros((1, state.words), dtype=_WORD)]
        )
        out = xor_rows(incoming, segment.indptr, segment.indices)
        entry = faults.get(segment_key)
        if entry is not None and entry.columns.size:
            # Apply all fault signatures with one XOR reduction per touched
            # component instead of a word-op per (fault, wire): sort the
            # (fault row, component) incidence by component, then reduceat
            # the masked shot rows at the component boundaries.
            rows = np.repeat(
                np.arange(entry.counts.size, dtype=np.intp), entry.counts
            )
            order = np.argsort(entry.columns, kind="stable")
            sorted_columns = entry.columns[order]
            starts = _run_starts(sorted_columns)
            out[sorted_columns[starts]] ^= np.bitwise_xor.reduceat(
                (entry.masks & mask)[rows[order]], starts, axis=0
            )
        out &= mask
        out[:frame] |= incoming[:frame] & ~mask
        state.x = out[: frame // 2]
        state.z = out[frame // 2 : frame]
        for slot, bit in enumerate(segment.bit_names):
            state.bits[bit] = out[frame + slot]


# -- compiled kernel tier -----------------------------------------------------


class KernelSampler(BatchedSampler):
    """The batched engine with its hot loops routed through
    :mod:`repro.sim.kernels` (``engine="kernel"``).

    Semantically this *is* :class:`BatchedSampler` — same compilation,
    same grouping, same judge — but the two dispatch-bound inner loops
    (segment application and residual coset popcounts) run as fused
    kernels: numba-compiled when numba is
    importable (:func:`repro.sim.kernels.available`), else their
    pure-NumPy twins. Either way the results are **bit-identical** to
    the NumPy batched engine — pinned across every catalog code and
    every routed consumer in ``tests/sim/test_kernels.py``, exactly as
    ``BatchedSampler`` is pinned against ``ReferenceSampler``.

    Use ``engine="auto"`` to get this tier opportunistically: it
    resolves to ``"kernel"`` when numba is importable and to
    ``"batched"`` otherwise, and never errors on a numba-free
    interpreter.
    """

    name = "kernel"

    @property
    def backend(self) -> str:
        """``"numba"`` or ``"numpy"`` — resolved per process, never
        pickled, so a cached engine moving between environments always
        uses whatever tier its interpreter actually has."""
        from . import kernels

        return kernels.backend_name()

    def _state_residual_weights(
        self, state: "_PackedState", x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        from . import kernels

        if state.num_shots == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data_x = self._unpack_data(state.x, state.num_shots)
        data_z = self._unpack_data(state.z, state.num_shots)
        return (
            kernels.coset_weights(data_x, x_reducer._span),
            kernels.coset_weights(data_z, z_reducer._span),
        )

    def _apply_segment(
        self,
        state: _PackedState,
        segment_key: tuple,
        mask: np.ndarray,
        faults: dict,
    ) -> None:
        from . import kernels

        segment = self.compiled.segments[segment_key]
        num_wires = self.compiled.num_wires
        indptr, indices = segment.indptr, segment.indices
        incoming = np.concatenate(
            [state.x, state.z, np.zeros((1, state.words), dtype=_WORD)]
        )
        out = np.zeros((indptr.size - 1, state.words), dtype=_WORD)
        entry = faults.get(segment_key)
        if entry is not None and entry.columns.size:
            fault_rows = np.repeat(
                np.arange(entry.counts.size, dtype=np.int64), entry.counts
            )
            fault_cols = entry.columns.astype(np.int64)
            fault_masks = entry.masks
        else:
            fault_rows = np.zeros(0, dtype=np.int64)
            fault_cols = np.zeros(0, dtype=np.int64)
            fault_masks = np.zeros((0, state.words), dtype=_WORD)
        kernels.apply_segment(
            incoming,
            indptr,
            indices,
            2 * num_wires,
            fault_rows,
            fault_cols,
            fault_masks,
            mask,
            out,
        )
        state.x = out[:num_wires]
        state.z = out[num_wires : 2 * num_wires]
        for slot, bit in enumerate(segment.bit_names):
            state.bits[bit] = out[2 * num_wires + slot]


# -- reference wrapper --------------------------------------------------------


class ReferenceSampler:
    """The per-shot oracle behind the same interface as the batched engine.

    Wraps :class:`~repro.sim.frame.ProtocolRunner` + :class:`LogicalJudge`;
    used for cross-validation and as a fallback for exotic protocols.
    """

    name = "reference"

    def __init__(self, protocol: DeterministicProtocol, judge: LogicalJudge | None = None):
        self.protocol = protocol
        self.judge = judge if judge is not None else LogicalJudge(protocol.code)
        self.runner = ProtocolRunner(protocol)
        self.n = protocol.code.n
        self.locations = protocol_locations(protocol)

    def run(self, injections_per_shot: Sequence[dict]) -> BatchResult:
        results = [self.runner.run(injections) for injections in injections_per_shot]
        num_shots = len(results)
        data_x = np.zeros((num_shots, self.n), dtype=np.uint8)
        data_z = np.zeros((num_shots, self.n), dtype=np.uint8)
        terminated = np.zeros(num_shots, dtype=bool)
        flips: dict[str, np.ndarray] = {}
        branches: list[list[tuple[int, tuple, tuple]]] = []
        for shot, result in enumerate(results):
            data_x[shot] = result.data_x
            data_z[shot] = result.data_z
            terminated[shot] = result.terminated_early
            branches.append(list(result.branches_taken))
            for bit, value in result.flips.items():
                if value:
                    flips.setdefault(
                        bit, np.zeros(num_shots, dtype=np.uint8)
                    )[shot] = 1
        return BatchResult(
            num_shots=num_shots,
            n=self.n,
            data_x=data_x,
            data_z=data_z,
            terminated=terminated,
            flips=flips,
            branches_taken=branches,
        )

    def failures(self, injections_per_shot: Sequence[dict]) -> np.ndarray:
        return np.fromiter(
            (
                self.judge.is_logical_failure(self.runner.run(injections))
                for injections in injections_per_shot
            ),
            dtype=bool,
            count=len(injections_per_shot),
        )

    def failures_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray
    ) -> np.ndarray:
        """Same indexed-batch contract as the batched engine (for swapping)."""
        return self.failures(
            materialize_stratum(self.locations, loc_idx, draw_idx)
        )

    def residual_weights(
        self, injections_per_shot: Sequence[dict], x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot residual weights — the certificate oracle path."""
        num_shots = len(injections_per_shot)
        x_weights = np.zeros(num_shots, dtype=np.int64)
        z_weights = np.zeros(num_shots, dtype=np.int64)
        for shot, injections in enumerate(injections_per_shot):
            result = self.runner.run(injections)
            x_weights[shot] = x_reducer.coset_weight(result.data_x)
            z_weights[shot] = z_reducer.coset_weight(result.data_z)
        return x_weights, z_weights

    def residual_weights_indexed(
        self, loc_idx: np.ndarray, draw_idx: np.ndarray, x_reducer, z_reducer
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.residual_weights(
            materialize_stratum(self.locations, loc_idx, draw_idx),
            x_reducer,
            z_reducer,
        )


_ENGINES = {
    "batched": BatchedSampler,
    "kernel": KernelSampler,
    "reference": ReferenceSampler,
}

#: Engines whose construction compiles something worth caching on disk.
_CACHED_ENGINES = frozenset({"batched", "kernel"})


def resolve_engine_name(engine: str) -> str:
    """Resolve the ``"auto"`` tier: ``"kernel"`` when numba is
    importable, ``"batched"`` otherwise — never an error on a numba-free
    interpreter. Concrete names pass through unchanged."""
    if engine == "auto":
        from . import kernels

        return "kernel" if kernels.available() else "batched"
    return engine


def make_sampler(
    protocol: DeterministicProtocol,
    *,
    engine: str = "batched",
    judge: LogicalJudge | None = None,
    store=None,
):
    """Engine factory: ``engine`` is ``"batched"``, ``"kernel"``,
    ``"reference"``, or ``"auto"`` (kernel tier when numba is
    importable, else batched — see :func:`resolve_engine_name`).

    With the artifact store enabled (``repro.store``), compiled batched
    and kernel engines are cached on disk under a content key derived
    from the canonical protocol JSON digest
    (:func:`repro.store.keys.engine_key`), so a fresh process — a
    spawn-pool worker, a restarted cluster worker, the next CLI
    invocation — loads the compiled segment maps instead of recompiling
    them. Cache hits and misses return functionally identical engines
    (the compilation is deterministic); the reference engine is never
    cached (it compiles nothing).
    """
    engine = resolve_engine_name(engine)
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of "
            f"{sorted(_ENGINES)} or 'auto')"
        ) from None
    if engine not in _CACHED_ENGINES:
        return cls(protocol, judge=judge)
    from ..store import keys as store_keys
    from ..store import resolve_store

    store = resolve_store(store)
    if store is None:
        return cls(protocol, judge=judge)
    key = store_keys.engine_key(protocol, engine, judge)
    if key is None:  # unpicklable inputs can't be named stably
        return cls(protocol, judge=judge)
    cached = store.get_object("engine", key)
    if type(cached) is cls:  # exact: KernelSampler subclasses BatchedSampler
        return cached
    sampler = cls(protocol, judge=judge)
    store.put_object("engine", key, sampler)
    return sampler
