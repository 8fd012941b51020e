"""The benchmark's hooks still resolve against the engine.

perfbench wraps engine functions by name and builds its inputs through
`weylbott.ledger.identity_to_obj`; a rename there, or a reroute that
stops calling a wrapped name, would otherwise only show when the
benchmark runs with tracing on.
"""

from pathlib import Path

from weylbott import ledger, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_inputs_build(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import tracer

    per_setup = inputs.COLLECTIONS_PER_SETUP
    built = {w: inputs.build(w, 1, per_setup) for w in ("cayley27", "random-collections", "ledger")}
    assert built["cayley27"][0].name == "cayley27"
    (objs, colls), _ = built["random-collections"]
    assert len(objs) == len(colls) == len(inputs.RANDOM_SETUPS) * per_setup
    (_, identities), digest = built["ledger"]
    assert len(identities) == 22 and len(digest) == 64

    t = tracer.Tracer()
    try:
        t.install()
        coll = verify.builtin_collection("cayley27")  # a fresh root system, so cold
        t.active = True
        verify.report_to_json(verify.verify_strong_exceptional(coll))
        t.active = False
    finally:
        t.uninstall()
    assert not hasattr(ledger.parse_expr, "__wrapped__")
    for name in (
        "parabolic.levi_tensor",
        "bbw.cohomology",
        "characters.irrep_character",
        "characters.weyl_dim",
        "lie_core.make_dominant",
    ):
        assert t.calls[name] > 0, name
    assert t.calls["verify.serialize"] == 1
    assert t.counts["verify.report_bytes"] == 1376528
