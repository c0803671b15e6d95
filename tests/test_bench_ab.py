"""Smoke test of ``tests/bench_ab.py``: one small kind of each workload, HEAD
against the working tree and the working tree against itself."""

import random
import sys

import bench_ab


def test_bench_ab_pairs_head_with_the_tree(capsys):
    """Both sides are distinct imports, every answer agrees (the script exits
    on a mismatch) and passes the workload's own check, and the A/A line is
    printed."""
    for workload, kinds in (("exact-alpha", ["reach k=2 m=4 n_t=6 second"]),
                            ("pattern-check", ["verdict n=5", "find_induced n=40"])):
        result = bench_ab.main(["--workload", workload, "--parent", "HEAD", "--rounds", "1",
                                "--repeats", "1", "--kinds", *kinds])
        out = capsys.readouterr().out
        assert "A/A: the working tree against itself" in out
        assert result["ab"]["kinds"] and set(result["ab"]["kinds"]) == set(result["aa"]["kinds"])
        assert all(any(text in name for text in kinds) for name in result["ab"]["kinds"])
    sides = [sys.modules[f"hfree_mis_{name}"] for name in ("parent", "change", "again")]
    assert len({id(side) for side in sides}) == 3
    assert sides[0].__file__ != sides[1].__file__ == sides[2].__file__


def test_miss_hosts_match_the_workload():
    """The script's miss hosts draw the edges perfbench's workload draws."""
    import workloads  # perfbench's, on the path bench_ab sets up

    assert set(bench_ab.MISS_HOSTS) == set(workloads.MISS_HOSTS)
    for name, make in bench_ab.MISS_HOSTS.items():
        assert make(30, random.Random(name)) == workloads.MISS_HOSTS[name](30, random.Random(name))
