"""The benchmark's tracer (`bench/spans.py`) wraps fuzzmin functions and
methods by name; a renamed or deleted one breaks the traced benchmark."""

from pathlib import Path

from fuzzmin import cli, fdl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    compcb, eval_role = cli.compcb, fdl.eval_role
    tracer = spans.Tracer()
    try:
        tracer.install(count=True)
        assert cli.compcb is not compcb and fdl.eval_role is not eval_role
    finally:
        tracer.uninstall()
    assert cli.compcb is compcb and fdl.eval_role is eval_role
