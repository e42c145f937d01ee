"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
name; a rename in the library must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from subposet import chains, cli, constructions, containment, lattice, solver
from subposet.constructions import construct_rt
from subposet.lattice import serialize_family

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library():
    return SimpleNamespace(cli=cli, containment=containment, solver=solver, chains=chains,
                           lattice=lattice, constructions=constructions)


def test_every_traced_target_resolves():
    spans = load_spans()
    for module, attr, name, _ in spans.targets(library()):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_traced_cli_runs_record_the_layer_spans(tmp_path, capsys):
    spans = load_spans()
    fam_file = tmp_path / "rt6.txt"
    fam_file.write_text(serialize_family(construct_rt(6, 2, 2)))
    tracer = spans.Tracer(library())
    with tracer.installed():
        assert cli.main(["check", str(fam_file), "--poset", "K[2,2]", "--induced"]) == 0
        assert cli.main(["solve", "3", "--poset", "P2"]) == 0
        assert cli.main(["chains", "minr", str(fam_file), "--r", "2"]) == 0
    capsys.readouterr()
    names = {span[0] for span in tracer.take()}
    assert {"containment.check", "solver.embed", "chains.marker"} <= names
    # the wrappers are gone again
    assert all(not hasattr(getattr(module, attr), "__wrapped__")
               for module, attr, _, _ in spans.targets(library()))


def test_traced_check_records_the_parse_span(tmp_path, capsys):
    spans = load_spans()
    family = construct_rt(6, 2, 2)
    fam_file = tmp_path / "rt6.txt"
    fam_file.write_text(serialize_family(family))
    tracer = spans.Tracer(library())
    with tracer.installed():
        assert cli.main(["check", str(fam_file), "--poset", "K[2,2]", "--induced"]) == 0
    capsys.readouterr()
    parsed = [span[5] for span in tracer.take() if span[0] == "lattice.parse"]
    assert parsed == [{"members": family.size}]
