"""The compiled form of the batched engine against scalar propagation.

:class:`~repro.sim.sampler.CompiledProtocol` builds every fault signature
in one backward sweep per segment. Here each entry of its signature
table, each dict-path signature and each segment map is recomputed by
pushing a :class:`~repro.core.faults.PauliFrame` through the segment with
:func:`repro.core.faults.propagate`, for every catalog protocol.
"""

import numpy as np
import pytest

from repro.core.faults import PauliFrame, propagate
from repro.sim.noise import compose_injections
from repro.sim.sampler import CompiledProtocol

from ..conftest import ALL_CODES, cached_protocol


def _circuit(protocol, segment_key):
    if segment_key[0] == "prep":
        return protocol.prep_segment
    layer = protocol.layers[segment_key[1]]
    if segment_key[0] == "verif":
        return layer.circuit
    return layer.branches[segment_key[2]].circuit


def _columns(frame, segment, num_wires):
    slot = {bit: i for i, bit in enumerate(segment.bit_names)}
    return sorted(
        [int(w) for w in np.flatnonzero(frame.x)]
        + [num_wires + int(w) for w in np.flatnonzero(frame.z)]
        + [2 * num_wires + slot[bit] for bit in frame.flipped_bits()]
    )


def _propagated(circuit, index, injection, num_wires):
    frame = PauliFrame.zero(num_wires)
    if injection.flip:
        frame.flip(circuit.instructions[index].bit)
    for wire, letter in injection.paulis:
        frame.insert(wire, letter)
    return propagate(circuit, frame, start=index + 1)


@pytest.mark.parametrize("key", ALL_CODES)
def test_signature_table_matches_propagation(key):
    protocol = cached_protocol(key)
    compiled = CompiledProtocol(protocol)
    num_wires = compiled.num_wires
    for loc, ((segment_key, index), _, _) in enumerate(compiled.locations):
        segment = compiled.segments[segment_key]
        circuit = _circuit(protocol, segment_key)
        table = compiled.draw_tables[loc]
        for draw, injection in enumerate(table):
            unit = compiled.unit_offset[loc] + draw
            got = compiled.unit_cols[
                compiled.unit_ptr[unit] : compiled.unit_ptr[unit + 1]
            ]
            assert compiled.segment_keys[compiled.unit_segment[unit]] == segment_key
            expected = _columns(
                _propagated(circuit, index, injection, num_wires),
                segment,
                num_wires,
            )
            assert got.tolist() == expected, (segment_key, index, injection)
            assert segment.injection_columns(index, injection).tolist() == expected
        # Dict-path injections off the draw tables: composed draws.
        for a in table:
            for b in table[:3]:
                if a.flip != b.flip:
                    continue
                both = compose_injections(a, b)
                expected = _columns(
                    _propagated(circuit, index, both, num_wires),
                    segment,
                    num_wires,
                )
                assert segment.injection_columns(index, both).tolist() == expected


@pytest.mark.parametrize("key", ALL_CODES)
def test_segment_maps_match_propagation(key):
    protocol = cached_protocol(key)
    compiled = CompiledProtocol(protocol)
    num_wires = compiled.num_wires
    frame_size = 2 * num_wires
    for segment_key, segment in compiled.segments.items():
        circuit = _circuit(protocol, segment_key)
        outgoing = frame_size + len(segment.bit_names)
        reach = np.zeros((outgoing, frame_size), dtype=bool)
        for component in range(frame_size):
            frame = PauliFrame.zero(num_wires)
            if component < num_wires:
                frame.x[component] = 1
            else:
                frame.z[component - num_wires] = 1
            propagate(circuit, frame)
            reach[_columns(frame, segment, num_wires), component] = True
        assert segment.indptr.size == outgoing + 1
        for row in range(outgoing):
            listed = segment.indices[segment.indptr[row] : segment.indptr[row + 1]]
            expected = np.flatnonzero(reach[row]).tolist() or [frame_size]
            assert listed.tolist() == expected, (segment_key, row)
