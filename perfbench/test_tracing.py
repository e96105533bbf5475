"""The tracer measures the program without changing it.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run.load_program()

import tracer as tracer_mod  # noqa: E402


@pytest.mark.parametrize("name", ["scatter", "certificate", "mre-panel"])
def test_traced_and_untraced_outputs_are_identical(tmp_path, name):
    wl = workloads.WORKLOADS[name](tmp_path)
    units = wl.inputs(workloads.PANEL_KEY, 2)
    if name == "scatter":
        units = [(call_seed, 20) for call_seed, _ in units]
    tracer = tracer_mod.Tracer()
    plain, traced, _ = run.traced_run(wl, units, tracer)

    assert plain.failed == traced.failed == 0
    assert all(None not in outputs for outputs in plain.fingerprints)
    # scatter compares CSV bytes; the others best values, traces and channels
    assert plain.fingerprints == traced.fingerprints
    assert len(tracer.start) > 0
    assert not tracer.absent
    assert not tracer.hook_errors


def test_uninstrument_restores_the_program(tmp_path):
    import cmirecon
    from cmirecon import linalg, recovery, states

    before = (linalg.eigh, recovery._retract, states.MultipartiteState.__post_init__, cmirecon.fidelity)
    tracer = tracer_mod.Tracer()
    tracer.instrument()
    assert linalg.eigh is not before[0]
    assert cmirecon.fidelity.__wrapped__ is before[3]
    tracer.uninstrument()
    after = (linalg.eigh, recovery._retract, states.MultipartiteState.__post_init__, cmirecon.fidelity)
    assert all(a is b for a, b in zip(before, after))


def test_missing_names_are_reported_not_fatal(monkeypatch):
    from cmirecon import recovery

    monkeypatch.delattr(recovery, "_retract")
    tracer = tracer_mod.Tracer()
    tracer.instrument()
    tracer.uninstrument()
    assert tracer.absent == ["recovery._retract"]
    assert tracer_mod.layer_metrics(tracer)["recovery.retract.self_s"] == (0.0, "s")


def test_self_time_excludes_child_spans():
    tracer = tracer_mod.Tracer()
    tracer.current_item = 7
    with tracer.span("outer"):
        sum(range(20000))
        with tracer.span("inner"):
            sum(range(20000))
    summary = tracer.summary()
    outer = tracer.end[0] - tracer.start[0]
    inner = tracer.end[1] - tracer.start[1]
    assert tracer.parent[1] == 0 and tracer.parent[0] == -1
    assert list(tracer.item) == [7, 7]
    assert summary["self_s"]["inner"] == pytest.approx(inner)
    assert summary["self_s"]["outer"] == pytest.approx(outer - inner)
    assert summary["calls"] == {"outer": 1, "inner": 1}
