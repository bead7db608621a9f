"""The generate-pass hand-off and process-global state.

Pins the contract of the one layout reuse the synthesis path keeps: a
layout call whose request equals the previous call's is handed that
build, bit for bit, and any other request rebuilds.  Fingerprints must
not depend on which designs, in which technologies, one process
synthesized before.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import dcop, warmstart
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import incremental, shape, stack
from repro.layout.engine import SCALAR, extraction_engine
from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
from repro.layout.two_stage_ota import (
    TwoStageLayoutRequest,
    generate_two_stage_layout,
)
from repro.runtime.artifacts import canonical_tokens
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.plans.two_stage import TwoStagePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.telemetry import trace_run
from repro.units import PF

TWO_STAGE_SPECS = OtaSpecs(
    vdd=3.3, gbw=30e6, phase_margin=60.0, cload=2 * PF,
    input_cm_range=(1.0, 2.0), output_range=(0.4, 2.9),
)


@pytest.fixture(autouse=True)
def _fresh_slot():
    """Each test starts (and leaves) the hand-off slot empty."""
    incremental.clear()
    yield
    incremental.clear()


@pytest.fixture(scope="module", params=["folded_cascode", "two_stage"])
def layout_case(request, tech, hand_sized):
    """(generator, request) for each layout generator."""
    if request.param == "folded_cascode":
        sizes, currents = hand_sized
        return generate_ota_layout, OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
    result = TwoStagePlan(tech).size(
        TWO_STAGE_SPECS, ParasiticMode.SINGLE_FOLD
    )
    return generate_two_stage_layout, TwoStageLayoutRequest(
        technology=tech,
        sizes=result.sizes,
        currents=result.currents,
        cc=result.biases["_cc"],
    )


def _equal_copy(request):
    """A request ``==`` to ``request`` that shares none of its mappings."""
    return replace(
        request, sizes=dict(request.sizes), currents=dict(request.currents)
    )


def _builds(tracer) -> float:
    return tracer.counters.get("layout.incremental.call_build", 0.0)


def _geometry(cell):
    return [(s.layer, s.rect, s.net) for s in cell.flattened()]


class TestGeneratePassHandOff:
    def test_generate_after_estimate_is_handed_off(self, layout_case):
        generate, request = layout_case
        estimate = generate(request, mode="estimate")
        with trace_run("hand-off") as tracer:
            handed = generate(_equal_copy(request), mode="generate")
        assert _builds(tracer) == 0
        assert tracer.counters["layout.incremental.call_reuse"] == 1
        (call,) = tracer.summary().spans("layout.call")
        assert call.attrs["cached"] is True
        assert estimate.cell is None
        assert handed.cell is not None and handed.mode == "generate"

        # The hand-off carries the bits a fresh build produces.
        incremental.clear()
        rebuilt = generate(request, mode="generate")
        assert list(canonical_tokens(handed.report)) == list(
            canonical_tokens(rebuilt.report)
        )
        assert handed.fold_config == rebuilt.fold_config
        assert _geometry(handed.cell) == _geometry(rebuilt.cell)

    def test_other_request_in_between_forces_rebuild(self, layout_case):
        generate, request = layout_case
        generate(request, mode="estimate")
        generate(replace(request, aspect=2.0), mode="estimate")
        with trace_run("rebuild") as tracer:
            generate(request, mode="generate")
        assert _builds(tracer) == 1
        assert "layout.incremental.call_reuse" not in tracer.counters

    def test_in_place_edit_after_the_call_forces_rebuild(self, layout_case):
        generate, request = layout_case
        mutable = _equal_copy(request)
        generate(mutable, mode="estimate")
        device = sorted(mutable.sizes)[0]
        width, length = mutable.sizes[device]
        mutable.sizes[device] = (width * 1.5, length)
        with trace_run("edited") as tracer:
            generate(mutable, mode="generate")
        assert _builds(tracer) == 1

    def test_other_extraction_engine_forces_rebuild(self, tech, hand_sized):
        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
        generate_ota_layout(request, mode="estimate")
        with trace_run("engine") as tracer, extraction_engine.use(SCALAR):
            generate_ota_layout(request, mode="generate")
        assert _builds(tracer) == 1


def _all_process_memos_cold() -> None:
    """Empty every process-global memo the synthesis path fills."""
    incremental.clear()
    shape.clear_compose_cache()
    stack._PLAN_CACHE.clear()
    dcop._MODEL_CACHE.clear()


class TestRunOrder:
    """The process-global memos (hand-off slot, shape-compose cache,
    stack-plan cache, model cache) outlive a synthesis, so one design's
    entries are live while the next is synthesized, possibly in another
    technology.  Fingerprints must not depend on which designs ran
    before in the same process."""

    def _folded_cascode(self, tech, specs):
        synthesizer = LayoutOrientedSynthesizer(
            tech, plan=FoldedCascodePlan(tech)
        )
        return synthesizer.run(specs, ParasiticMode.FULL, generate=True)

    def _two_stage(self, tech):
        def layout_tool(sizing, mode):
            return generate_two_stage_layout(
                TwoStageLayoutRequest(
                    technology=tech, sizes=sizing.sizes,
                    currents=sizing.currents, cc=sizing.biases["_cc"],
                ),
                mode=mode,
            )

        synthesizer = LayoutOrientedSynthesizer(
            tech, plan=TwoStagePlan(tech), layout_tool=layout_tool
        )
        return synthesizer.run(
            TWO_STAGE_SPECS, ParasiticMode.FULL, generate=True
        )

    def test_fingerprints_independent_of_run_order(
        self, tech, tech_035, specs
    ):
        other = OtaSpecs(
            vdd=3.3, gbw=50e6, phase_margin=65.0, cload=2 * PF,
            input_cm_range=(0.55, 1.84), output_range=(0.51, 2.31),
        )
        runs = {
            "a": lambda: self._folded_cascode(tech, specs).fingerprint(),
            "b": lambda: self._folded_cascode(tech, other).fingerprint(),
            "two-stage": lambda: self._two_stage(tech).fingerprint(),
            "a-0.35um": lambda: self._folded_cascode(
                tech_035, specs
            ).fingerprint(),
        }
        cold = {}
        for name, run in runs.items():
            _all_process_memos_cold()
            cold[name] = run()
        assert len(set(cold.values())) == len(cold)
        # Both orders step 0.6 um -> 0.35 um -> 0.6 um.
        for order in (
            ("a", "a-0.35um", "b", "two-stage"),
            ("b", "two-stage", "a-0.35um", "a"),
        ):
            _all_process_memos_cold()
            assert {name: runs[name]() for name in order} == cold, order


class TestWarmStartLru:
    def test_session_cap_evicts_lru(self):
        voltages = np.zeros(3)
        with trace_run("warm") as tracer:
            with warmstart.session(limit=2):
                key_a = (("a",), ())
                key_b = (("b",), ())
                key_c = (("c",), ())
                warmstart.record(key_a, voltages)
                warmstart.record(key_b, voltages)
                assert warmstart.lookup(key_a) is not None  # refresh a
                warmstart.record(key_c, voltages)  # evicts b
                assert warmstart.lookup(key_b) is None
                assert warmstart.lookup(key_a) is not None
                assert warmstart.lookup(key_c) is not None
                assert warmstart.evictions() == 1
        assert tracer.counters["dc.warm_start.evicted"] == 1

    def test_snapshot_restore_preserves_order(self):
        with warmstart.session(limit=2):
            key_a = (("a",), ())
            key_b = (("b",), ())
            warmstart.record(key_a, np.zeros(2))
            warmstart.record(key_b, np.ones(2))
            snap = warmstart.snapshot()
            warmstart.restore(snap)
            # "a" is still the LRU entry after a restore: recording a
            # third key evicts it, not "b".
            warmstart.record((("c",), ()), np.zeros(2))
            assert warmstart.lookup(key_a) is None
            assert warmstart.lookup(key_b) is not None

    def test_unbounded_session(self):
        with warmstart.session(limit=None):
            for i in range(100):
                warmstart.record(((str(i),), ()), np.zeros(1))
            assert warmstart.evictions() == 0
