"""The solver lists the copies ending at each position once per solve, on
the first path, so a traced solve records at most one containment search per
position and pattern, in position order, whatever the number of include
attempts."""

import json

from subposet import cli, solver
from subposet.posets import named_poset

from test_bench_hooks import library, load_spans

ARGV = ["solve", "4", "--poset", "butterfly"]


def test_traced_solve_searches_each_position_once(capsys, monkeypatch):
    tracer = load_spans().Tracer(library())
    with tracer.installed():
        assert cli.main(ARGV) == 0
    traced = capsys.readouterr().out
    spans = tracer.take()
    embeds = [span for span in spans if span[0] == "solver.embed"]
    assert 0 < len(embeds) <= 16  # 2^4 positions, one pattern
    assert [span[5]["attempts"] for span in spans if span[0] == "solver.solve"] == [911]

    assert cli.main(ARGV) == 0
    untraced = capsys.readouterr().out
    assert untraced == traced
    assert json.loads(untraced)["payload"]["nodes"] == "911"

    # the searches pin positions 0, 1, 2, ... in order, each once
    pinned = []
    search = solver.find_embedding

    def recording(*args, **kwargs):
        pinned.append(kwargs["require_member"])
        return search(*args, **kwargs)

    monkeypatch.setattr(solver, "find_embedding", recording)
    assert solver.la_exact(4, [named_poset("butterfly")]).nodes_explored == 911
    assert pinned == list(range(len(embeds))) == list(range(16))
