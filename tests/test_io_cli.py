import hashlib
import random
import re

import pytest

from hfree_mis.cli import main
from hfree_mis.errors import InputFormatError
from hfree_mis.graph import disjoint_union, random_graph
from hfree_mis.induced import find_induced
from hfree_mis.io import emit_graph, parse_graph
from hfree_mis.oracle import alpha_exact
from hfree_mis.patterns import clique_minus_star, complete, complete_multipartite, cycle, pattern

from helpers import near_clique


def test_parse_k2():
    g = parse_graph("p 2 1\ne 1 2\n")
    assert g.n == 2 and g.has_edge(0, 1)


def test_round_trip_random():
    rng = random.Random(80)
    for _ in range(25):
        g = random_graph(rng.randrange(1, 15), rng.random(), rng)
        assert parse_graph(emit_graph(g)) == g


def test_comments_stripped_and_duplicates_collapsed():
    text = "c hello\np 3 3\ne 1 2\ne 2 1\ne 2 3\n"
    g = parse_graph(text)
    assert g.edge_count() == 2


def test_self_loop_rejected_with_line():
    with pytest.raises(InputFormatError) as err:
        parse_graph("p 2 1\ne 1 1\n")
    assert err.value.line_no == 2


def test_out_of_range_rejected():
    with pytest.raises(InputFormatError):
        parse_graph("p 2 1\ne 1 5\n")


def test_missing_header():
    with pytest.raises(InputFormatError):
        parse_graph("e 1 2\n")


def test_too_few_edge_lines_rejected():
    """A truncated file is not read as the smaller graph it happens to hold."""
    with pytest.raises(InputFormatError, match="declares 2 edge lines, file has 1") as err:
        parse_graph("c cut short\np 3 2\ne 1 2\n")
    assert err.value.line_no == 2


def test_too_many_edge_lines_rejected():
    with pytest.raises(InputFormatError, match="declares 1 edge lines, file has 3"):
        parse_graph("p 3 1\ne 1 2\ne 2 3\ne 2 1\n")
    with pytest.raises(InputFormatError, match="declares 0 edge lines, file has 1"):
        parse_graph("p 2 0\ne 1 2\n")


def test_bad_line_type():
    with pytest.raises(InputFormatError) as err:
        parse_graph("p 2 1\nx 1 2\n")
    assert err.value.line_no == 2


# -- CLI ------------------------------------------------------------------------

def _write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(emit_graph(g))
    return str(path)


def test_cli_oracle(tmp_path, capsys):
    path = _write_graph(tmp_path, pattern("C5").graph)
    assert main(["oracle", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "alpha = 2" in out


def test_cli_oracle_budget_exit_code(tmp_path, capsys):
    g = random_graph(30, 0.5, random.Random(0))
    path = _write_graph(tmp_path, g)
    assert main(["oracle", "--input", path, "--budget", "2"]) == 2


def test_cli_solve_deterministic(tmp_path, capsys):
    g = random_graph(10, 0.3, random.Random(3))
    from hfree_mis.induced import find_induced

    if find_induced(g, pattern("gem")) is not None:
        g = random_graph(10, 0.15, random.Random(5))
    path = _write_graph(tmp_path, g)
    assert main(["solve", "--input", path, "--pattern", "gem", "--k", "2",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", "--input", path, "--pattern", "gem", "--k", "2",
                 "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seed = 7" in first


def test_cli_solve_unsupported_pattern(tmp_path, capsys):
    path = _write_graph(tmp_path, complete(3))
    assert main(["solve", "--input", path, "--pattern", "C4", "--k", "2"]) == 1


def test_cli_classify(capsys):
    assert main(["classify", "--pattern", "C4"]) == 0
    out = capsys.readouterr().out
    assert "w1_hard" in out and "rule:" in out


def test_cli_kernel(tmp_path, capsys):
    path = _write_graph(tmp_path, pattern("C5").graph)
    out_path = str(tmp_path / "reduced.txt")
    assert main(["kernel", "--input", path, "--family", "krfree",
                 "--k", "3", "--r", "3", "--output", out_path]) == 0
    text = capsys.readouterr().out
    assert "reduced" in text
    reduced = parse_graph(open(out_path).read())
    assert reduced.n == 5


@pytest.mark.parametrize("family, r", [("krfree", 3), ("paw", 4)])
def test_cli_kernel_nonpositive_k(tmp_path, capsys, family, r):
    path = _write_graph(tmp_path, pattern("C5").graph)
    assert main(["kernel", "--input", path, "--family", family,
                 "--k", "0", "--r", str(r)]) == 0
    text = capsys.readouterr().out
    assert "verdict = solved_yes" in text and "rule: k <= 0" in text


def test_cli_generate_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "inst.txt")
    assert main(["generate", "--kind", "gridtiling", "--k", "2", "--m", "2",
                 "--nt", "2", "--variant", "first", "--p", "1", "--planted",
                 "--seed", "3", "--output", out_path]) == 0
    text = open(out_path).read()
    g = parse_graph(text)
    assert g.n == 128
    assert "k'=64" in text or "k'=" in text
    # determinism: same seed gives byte-identical output
    out2 = str(tmp_path / "inst2.txt")
    assert main(["generate", "--kind", "gridtiling", "--k", "2", "--m", "2",
                 "--nt", "2", "--variant", "first", "--p", "1", "--planted",
                 "--seed", "3", "--output", out2]) == 0
    assert open(out2).read() == text


# sha256 over the files `generate --kind gridtiling` writes below, recorded
# when the per-vertex comments were still read from vertex labels on the graph
CLI_GENERATE_DIGEST = "a398e4d24c86d8180a6c26e89222d8a39d8dcedae686fa397d9f17466ed4f2c6"


def test_cli_generate_output_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for variant in ("first", "second", "third"):
        for args in (["--k", "2", "--m", "2", "--nt", "2", "--p", "1", "--planted"],
                     ["--k", "2", "--m", "3", "--nt", "3", "--p", "2"]):
            out_path = tmp_path / "inst.txt"
            assert main(["generate", "--kind", "gridtiling", "--variant", variant, *args,
                         "--seed", "5", "--output", str(out_path)]) == 0
            digest.update(out_path.read_bytes())
    assert digest.hexdigest() == CLI_GENERATE_DIGEST


def test_cli_generate_orcompose(tmp_path, capsys):
    p1 = _write_graph(tmp_path, pattern("C5").graph, "a.txt")
    p2 = _write_graph(tmp_path, pattern("C5").graph, "b.txt")
    out_path = str(tmp_path / "joined.txt")
    assert main(["generate", "--kind", "orcompose", "--inputs", p1, p2,
                 "--output", out_path]) == 0
    g = parse_graph(open(out_path).read())
    assert g.n == 10
    from hfree_mis.oracle import alpha_exact

    assert alpha_exact(g).alpha == 2


def test_cli_input_error_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 2 1\ne 1 1\n")
    assert main(["oracle", "--input", str(path)]) == 1


def test_cli_truncated_input_exit_code(tmp_path, capsys):
    text = emit_graph(pattern("C5").graph)
    path = tmp_path / "cut.txt"
    path.write_text(text[: text.rindex("e ")])
    assert main(["oracle", "--input", str(path)]) == 1
    assert "declares 5 edge lines, file has 4" in capsys.readouterr().err


def test_cli_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HFREE_MIS_SEED", "42")
    path = _write_graph(tmp_path, pattern("C5").graph)
    assert main(["solve", "--input", path, "--pattern", "2K2", "--k", "2"]) == 0
    assert "seed = 42" in capsys.readouterr().out


def test_cli_solve_budget_exit_code(tmp_path, capsys):
    # three disjoint C5s are gem-free with alpha 6; greedy finds 6 < 7, so
    # the oracle must search, and refuting k = 7 takes more than two nodes
    c5 = pattern("C5").graph
    path = _write_graph(tmp_path, disjoint_union(disjoint_union(c5, c5), c5))
    assert main(["solve", "--input", path, "--pattern", "gem", "--k", "7",
                 "--budget", "2"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_solve_modes(tmp_path, capsys):
    path = _write_graph(tmp_path, pattern("C5").graph)
    for mode, method in (("exact", "exact"), ("desk", "gem")):
        assert main(["solve", "--input", path, "--pattern", "gem", "--k", "3",
                     "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert f"method = {method}\n" in out
        assert "independent set of size 3: no" in out


def test_cli_turing_route_prints_its_witness(tmp_path, capsys):
    """A yes of the paper's Turing-kernel route prints k independent
    vertices, with no note about a missing witness."""
    rng = random.Random(92)
    g = near_clique(rng, (2, 7), 0.7)
    while find_induced(g, clique_minus_star(5, 3)) is not None:
        g = near_clique(rng, (2, 7), 0.7)
    path = _write_graph(tmp_path, g)
    k = alpha_exact(g).alpha
    assert main(["solve", "--input", path, "--pattern", "K5-K1,3", "--k", str(k),
                 "--mode", "desk"]) == 0
    out = capsys.readouterr().out
    assert "method = turing kernel r=5\n" in out and f"size {k}: yes" in out
    assert "note:" not in out
    witness = [int(tok) - 1 for tok in re.search(r"(?m)^witness = (.*)$", out).group(1).split()]
    assert len(set(witness)) == len(witness) == k and g.is_independent_set(witness)


def test_cli_turing_kernel_on_an_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("p 0 0\n")
    assert main(["kernel", "--input", str(path), "--family", "turing", "--k", "2",
                 "--r", "5"]) == 0
    assert "subinstances = 0 " in capsys.readouterr().out


def _kernel_cli_inputs():
    """(name, graph, family, r, ks): seeded inputs reaching every kernel
    outcome the CLI prints: reduced and solved instances, emitted Turing
    subinstances and passed-through ones, and violations."""
    rng = random.Random(90)
    for i in range(6):
        yield f"sparse{i}", random_graph(rng.randrange(5, 20), rng.choice((0.1, 0.2, 0.4)), rng), \
            "krfree", 3 + i % 2, (2, 3, 4, 5)
    for i in range(6):
        g = complete_multipartite([rng.randrange(1, 4) for _ in range(rng.randrange(2, 8))])
        g = disjoint_union(g, complete_multipartite([rng.randrange(1, 4) for _ in range(3)]))
        if i % 3:
            g = disjoint_union(g, cycle(5))
        yield f"multipartite{i}", g, "paw", 4 + i % 2, range(2, 9)
    found = 0
    while found < 6:
        g = near_clique(rng, (2, 7), 0.7)
        if find_induced(g, clique_minus_star(5, 3)) is None:
            found += 1
            yield f"near-clique{found}", g, "turing", 5, (1, 2, 3, 4)
    yield "c5", cycle(5), "turing", 5, (2, 3)


# sha256 over the stdout, stderr and --output file of every run of
# test_cli_kernel_output_is_pinned; recorded when the Turing pieces' files
# first named their kept input ids and guessed (or found) vertices, every
# other output unchanged since before the kernels named their subgraphs by
# vertex masks
CLI_KERNEL_DIGEST = "ccb8923aa7cf236bade7f2b74e5ba7527982a5f052874497d1a3a2309005f42b"


def test_cli_kernel_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, g, family, r, ks in _kernel_cli_inputs():
        path = _write_graph(tmp_path, g, f"{name}.txt")
        for k in ks:
            out_path = tmp_path / f"{name}-{k}.out"
            code = main(["kernel", "--input", path, "--family", family, "--k", str(k),
                         "--r", str(r), "--output", str(out_path)])
            captured = capsys.readouterr()
            written = out_path.read_text() if out_path.exists() else ""
            digest.update(f"{name} {k} {code}\n{captured.out}{captured.err}{written}".encode())
    assert digest.hexdigest() == CLI_KERNEL_DIGEST


def test_cli_turing_kernel_runs_per_component(tmp_path, capsys):
    """A disconnected input is kernelized per component and per target
    1..k, with every printed line and written piece headed by its component
    and target; a component answers its largest target with a yes piece,
    which is its alpha capped at k.  Each piece names its vertices' input ids
    and the guessed vertices (a solved piece its found set), so a yes piece's
    set lifts to an independent set of the target's size in the input."""
    rng = random.Random(91)
    core = near_clique(rng, (2, 7), 0.7)
    while find_induced(core, clique_minus_star(5, 3)) is not None:
        core = near_clique(rng, (2, 7), 0.7)
    g = disjoint_union(disjoint_union(core, cycle(5)), complete(3))
    comps = g.connected_components()
    alphas = [alpha_exact(g, mask=c).alpha for c in comps]
    path = _write_graph(tmp_path, g)
    for k in (sum(alphas), sum(alphas) + 1):
        out_path = tmp_path / f"pieces-{k}.txt"
        assert main(["kernel", "--input", path, "--family", "turing", "--k", str(k),
                     "--r", "5", "--output", str(out_path)]) == 0
        printed = dict(re.findall(r"(?m)^(component \d+ target \d+): subinstances = (\d+)",
                                  capsys.readouterr().out))
        assert list(printed) == [f"component {c} target {i}"
                                 for c in range(len(comps)) for i in range(1, k + 1)]
        yes = {head: False for head in printed}
        counts = dict.fromkeys(printed, 0)
        for piece in re.split(r"(?m)^(?=c component)", out_path.read_text())[1:]:
            head, target, kk, kept, named, guessed = re.match(
                r"c (component \d+ target (\d+)): subinstance \d+ parameter (\d+)\n"
                r"c kept((?: \d+)*)\nc (guessed|found)((?: \d+)*)\n", piece).groups()
            counts[head] += 1
            kk, kept, guessed = int(kk), [int(v) - 1 for v in kept.split()], \
                [int(v) - 1 for v in guessed.split()]
            assert (named == "found") == (kk == 0)
            sub = alpha_exact(parse_graph(piece))
            if sub.alpha >= kk:
                yes[head] = True
                found = guessed + [kept[v] for v in sub.witness[:kk]]
                assert len(set(found)) == int(target) and g.is_independent_set(found)
        assert counts == {head: int(n) for head, n in printed.items()}
        for c, alpha in enumerate(alphas):
            answers = [i for i in range(1, k + 1) if yes[f"component {c} target {i}"]]
            assert answers == list(range(1, min(alpha, k) + 1))
