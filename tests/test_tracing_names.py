import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_is_where_the_tracer_patches_it(monkeypatch):
    # the bench tracer patches each (owner, attribute) of its layer table in
    # the owner's own namespace: a name removed from there fails here,
    # before a traced run stops on it
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [(span, owner.__name__, name)
               for span, targets, _, _ in tracing.layer_table()
               for owner, name in targets if name not in vars(owner)]
    assert missing == []
