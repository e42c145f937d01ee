"""Input guards of the library and the CLI: each refuses with its own message."""

import json

import pytest

from subposet import cli
from subposet.chains import (capped_level_coeff, min_r_partition, minr_maxt_partition,
                             three_per_level_coeff)
from subposet.constructions import construct_rst_induced
from subposet.containment import Relations, find_embedding
from subposet.formulas import (Regime, case_intervals, classify, density_bounds_induced,
                               reduce_signature)
from subposet.lattice import largest_mod_classes, level
from subposet.posets import Poset, chain_poset, parse_poset


def find_copies_without_a_member():
    rels = Relations(level(3, 1).members)
    return find_embedding(rels, rels.full, chain_poset(1), copies={})


GUARDS = [
    (min_r_partition, (level(3, 1), 0), "need r >= 1, got 0"),
    (minr_maxt_partition, (level(3, 1), 0, 1), "need r, t >= 1, got r=0, t=1"),
    (minr_maxt_partition, (level(3, 1), 1, 0), "need r, t >= 1, got r=1, t=0"),
    (three_per_level_coeff, (0,), "need n >= 1, got 0"),
    (capped_level_coeff, (0, 2), "need n >= 1, got 0"),
    (capped_level_coeff, (3, 0), "need s >= 1, got 0"),
    (construct_rst_induced, (8, 0, 2, 1), "widths must be positive, got r=0, t=1"),
    (construct_rst_induced, (8, 1, 2, 0), "widths must be positive, got r=1, t=0"),
    (find_copies_without_a_member, (), "copies are listed only with require_member"),
    (reduce_signature, ((2, 0, 2),), "widths must be positive, got (2, 0, 2)"),
    (case_intervals, (0,), "need m >= 1, got 0"),
    (classify, (0, 2, 2), "widths must be positive, got (0, 2, 2)"),
    (density_bounds_induced, (2, 0, 2, Regime.LARGE_GENERAL),
     "widths must be positive, got (2, 0, 2)"),
    # s = 1 is in no regime: e*(K[1,1,1]) = 2 and e*(K[2,1,2]) = 2
    (density_bounds_induced, (1, 1, 1, Regime.LARGE_BOUNDED),
     "induced bounds need s >= 2, got s=1"),
    (cli.main, (["bounds", "ind", "2", "1", "2", "--regime", "large-general"],),
     "induced bounds need s >= 2, got s=1"),
    (largest_mod_classes, (4, 2, 5), "need 0 <= r <= n, got r=5, n=4"),
    (Poset, (2, (0, 4)), "below[1] references elements outside the poset"),
    # the comment line is skipped, so the malformed cover is line 3
    (parse_poset, ("elements=2\n# a comment\n1-2",),
     "line 3: malformed cover '1-2'; expected 'a<b'"),
    (cli.main, (["construct", "rst", "8", "2", "2", "-o", "{out}"],),
     "construct rst takes: n r s t"),
    (cli.main, (["chains", "minrmaxt", "{family}", "--r", "2"],),
     "chains minrmaxt requires --r and --t"),
]


@pytest.mark.parametrize("call, args, message", GUARDS,
                         ids=[f"{call.__name__}: {message}" for call, _, message in GUARDS])
def test_guard_messages(tmp_path, capsys, call, args, message):
    if call is cli.main:  # a usage error: exit 2, the message as the payload
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text("n=2\n{1}\n{2}\n")
        paths = {"{family}": str(fam_file), "{out}": str(tmp_path / "out.txt")}
        assert cli.main([paths.get(a, a) for a in args[0]]) == cli.EXIT_USAGE
        assert json.loads(capsys.readouterr().out)["payload"]["error"] == message
        assert not (tmp_path / "out.txt").exists()
    else:
        with pytest.raises(ValueError) as err:
            call(*args)
        assert str(err.value) == message
