"""The benchmark's hooks still resolve against the engine.

perfbench wraps engine functions by name and builds its inputs through
`weylbott.ledger.identity_to_obj`; a rename there would otherwise only
show when the benchmark runs with tracing on.
"""

from pathlib import Path

from weylbott import ledger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_inputs_build(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert not hasattr(ledger.parse_expr, "__wrapped__")
    (setup, identities), digest = inputs.build("ledger", 1, 1)
    assert len(identities) == 22 and len(digest) == 64
