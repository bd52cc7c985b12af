import pytest

from cascaudit.errors import GraphError
from cascaudit.graph import (
    PathEnumConfig,
    SocialGraph,
    _id_key,
    enumerate_paths,
    followee_path,
    forward_ball,
    load_graph,
    read_node_features,
    save_graph,
)
from cascaudit.rng import derive_rng

from .conftest import build_graph, candidates, random_digraph
from .oracles import all_simple_paths_to_edge


def test_add_node_basics():
    graph = SocialGraph([], (1,))
    assert graph.node_count == 1
    assert graph.has_node(1)


def test_add_edge_directedness():
    graph = SocialGraph([(1, 2)])
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(2, 1)


def test_add_edge_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        SocialGraph([(1, 1)])


def test_path_enum_config_validation():
    with pytest.raises(GraphError):
        PathEnumConfig(max_path_length=0)
    with pytest.raises(GraphError):
        PathEnumConfig(max_paths=0)


def test_demo_graph_two_routes(demo_graph):
    result = enumerate_paths(demo_graph, 1, (6, 14), PathEnumConfig(max_path_length=8))
    assert [p.vertices for p in candidates(result)] == [(1, 2, 6, 14), (1, 6, 14)]
    assert not result.truncated


def test_source_adjacent_edge_single_path(demo_graph):
    result = enumerate_paths(demo_graph, 1, (1, 2))
    assert [p.vertices for p in candidates(result)] == [(1, 2)]


def test_diamond_two_paths(diamond_graph):
    result = enumerate_paths(diamond_graph, "s", ("t", "w"))
    got = sorted(p.vertices for p in candidates(result))
    expected = all_simple_paths_to_edge(diamond_graph.edges(), "s", ("t", "w"), 8)
    assert got == expected
    assert len(got) == 2


def test_unreachable_edge_yields_empty():
    graph = build_graph([(1, 2), (3, 4)])
    result = enumerate_paths(graph, 1, (3, 4))
    assert result.prefixes == ()
    assert not result.truncated


def test_every_path_ends_with_target_edge(demo_graph):
    for target in [(6, 14), (6, 16), (7, 19), (9, 23), (10, 23), (4, 24)]:
        result = enumerate_paths(demo_graph, 1, target)
        for path in candidates(result):
            assert path.edges[-1] == target
            assert path.vertices[0] == 1
            assert len(set(path.vertices)) == len(path.vertices)


def test_matches_brute_force_on_random_graphs():
    rng = derive_rng(2024)
    checked = 0
    for _ in range(60):
        graph, edges = random_digraph(rng)
        if not edges:
            continue
        source = 0
        target = edges[int(rng.integers(len(edges)))]
        cfg = PathEnumConfig(max_path_length=graph.node_count, max_paths=100000)
        got = sorted(p.vertices for p in candidates(enumerate_paths(graph, source, target, cfg)))
        expected = all_simple_paths_to_edge(edges, source, target, graph.node_count)
        assert got == expected
        checked += 1
    assert checked >= 40


def test_lexicographic_order(demo_graph):
    result = enumerate_paths(demo_graph, 1, (10, 23))
    seqs = [p.vertices for p in candidates(result)]
    assert seqs == sorted(seqs)


def test_determinism(demo_graph):
    a = enumerate_paths(demo_graph, 1, (6, 16))
    b = enumerate_paths(demo_graph, 1, (6, 16))
    assert a.prefixes == b.prefixes


def test_truncation_keeps_shortest_paths():
    # complete-ish digraph: many long routes, one short one
    nodes = list(range(6))
    edges = [(u, v) for u in nodes for v in nodes if u != v]
    graph = build_graph(edges)
    full = enumerate_paths(graph, 0, (4, 5), PathEnumConfig(max_path_length=6, max_paths=100000))
    assert not full.truncated
    capped = enumerate_paths(graph, 0, (4, 5), PathEnumConfig(max_path_length=6, max_paths=4))
    assert capped.truncated
    assert len(capped) == 4
    shortest = sorted(candidates(full), key=lambda p: (len(p.edges), p.vertices))[:4]
    assert sorted(p.vertices for p in candidates(capped)) == sorted(p.vertices for p in shortest)


def test_target_edge_back_to_source():
    graph = build_graph([(1, 2), (2, 1)])
    result = enumerate_paths(graph, 1, (2, 1))
    assert result.prefixes == ()


def test_edge_list_round_trip(tmp_path, demo_graph):
    edge_file = tmp_path / "edges.tsv"
    save_graph(demo_graph.edges(), edge_file)
    loaded = load_graph(edge_file)
    assert loaded.edges() == demo_graph.edges()
    assert loaded.nodes() == demo_graph.nodes()


def test_feature_records_parse_in_one_array_and_errors_name_the_line(tmp_path):
    feat_file = tmp_path / "features.tsv"
    feat_file.write_text("a\t0.1,-2e3\n\n7\t1_0, 5\na\t3,4\n", encoding="utf-8")
    table = read_node_features(feat_file)
    assert list(table) == ["a", 7]  # a repeated id keeps its last record
    assert table["a"].tolist() == [3.0, 4.0] and table[7].tolist() == [10.0, 5.0]
    for text, message in (
        ("", r"features.tsv: no feature records$"),
        ("\n\n", r"features.tsv: no feature records$"),
        ("a\t0.1,-2e3\n\n7\t1_0, inf\n8\tnan,1\n", r":3: features of node 7 are not finite$"),
        ("1\t0.5,1\n2\t0.5\n", r":2: feature dimension 1 for 2 does not match .* 2$"),
        ("1\t0.5,x\n2\t0.5\n", r":2: feature dimension 1 for 2"),  # lengths first
        ("1\t0.5,1\n2\t0.5,1\n3\tx,1\n", r":3: bad feature record: .*'x'"),
        ("1\t0.5,1\n2 0.5,1\n", r":2: bad feature record"),
    ):
        feat_file.write_text(text, encoding="utf-8")
        with pytest.raises(GraphError, match=message):
            read_node_features(feat_file)


def test_load_graph_without_features(tmp_path):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("1\t2\n2\t3\n", encoding="utf-8")
    graph = load_graph(edge_file)
    assert graph.has_edge(1, 2) and graph.has_edge(2, 3)


def _grown(edges, nodes=()):
    """The expected graph of ``edges``, grown in plain dicts one node and one
    edge at a time: (ids in order of first appearance, edges, followers and
    followees by node in insertion order)."""
    ids, followers, followees, grown_edges = [], {}, {}, []
    for node in [*nodes, *(node for edge in edges for node in edge)]:
        if node not in followers:
            ids.append(node)
            followers[node], followees[node] = [], []
    for u, v in edges:
        if (u, v) not in grown_edges:
            grown_edges.append((u, v))
            followers[u].append(v)
            followees[v].append(u)
    return ids, grown_edges, followers, followees


def _assert_same_graph(built, grown):
    ids, edges, followers, followees = grown
    assert list(built._pred) == ids and list(built._out) == ids  # first-appearance order
    assert built.nodes() == sorted(ids, key=_id_key)
    assert built.edges() == sorted(edges, key=lambda e: (_id_key(e[0]), _id_key(e[1])))
    assert built.edge_count == len(edges)
    for node in ids:
        assert built.followers(node) == sorted(followers[node], key=_id_key)
        assert built._pred[node] == followees[node]  # followees, in insertion order


@pytest.mark.parametrize("seed", range(20))
def test_bulk_build_matches_a_graph_grown_edge_by_edge(tmp_path, seed):
    rng = derive_rng(seed)
    ids = [*range(10), "a", "b", "c"]
    edges = [tuple(ids[int(i)] for i in rng.choice(len(ids), 2, replace=False))
             for _ in range(int(rng.integers(1, 40)))]
    edges += [edges[int(i)] for i in rng.integers(len(edges), size=5)]  # repeated edges
    _assert_same_graph(SocialGraph(edges, ("s",)), _grown(edges, ("s",)))

    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("".join(f"{u}\t{v}\n" for u, v in edges), encoding="utf-8")
    _assert_same_graph(load_graph(edge_file), _grown(edges))


def test_bulk_build_keeps_the_edge_checks(tmp_path):
    graph = SocialGraph([(0, 1), (0, 1), (1, 0)])
    assert graph.edges() == [(0, 1), (1, 0)] and graph.followers(0) == [1]
    with pytest.raises(GraphError, match="self-loop on 2"):
        SocialGraph([(0, 1), (2, 2)])
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("0\t1\n2\t2\n", encoding="utf-8")
    with pytest.raises(GraphError, match="self-loop on 2"):
        load_graph(edge_file)


def test_load_graph_bad_record(tmp_path):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("1 2\n", encoding="utf-8")
    with pytest.raises(GraphError, match="expected"):
        load_graph(edge_file)


def test_mixed_int_and_string_ids_sort_ints_first(tmp_path):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("0\t1\n0\ta\n1\t2\n0\t3\na\tb\n", encoding="utf-8")
    graph = load_graph(edge_file)
    assert graph.followers(0) == [1, 3, "a"]
    assert graph.nodes() == [0, 1, 2, 3, "a", "b"]
    assert graph.edges() == [(0, 1), (0, 3), (0, "a"), (1, 2), ("a", "b")]


def test_mixed_ids_enumerate_in_total_order():
    graph = SocialGraph(((0, 1), (0, "b"), (1, 3), ("b", 3), (3, 4)), (0, "b", 1, 3, 4))
    paths = candidates(enumerate_paths(graph, 0, (3, 4)))
    assert [p.vertices for p in paths] == [(0, 1, 3, 4), (0, "b", 3, 4)]


def test_followers_stay_sorted_under_any_insertion_order():
    rng = derive_rng(99)
    targets = [int(x) for x in rng.permutation(50) + 1]
    graph = build_graph([(0, t) for t in targets])
    assert graph.followers(0) == sorted(targets)
    mixed = [1, 2, 10, 11, "a", "b", "ab", "z"]
    graph = SocialGraph([(0, mixed[int(i)]) for i in rng.permutation(len(mixed))], [0] + mixed)
    assert graph.followers(0) == [1, 2, 10, 11, "a", "ab", "b", "z"]


def test_shared_prefix_search_matches_oracle_with_truncation():
    # one graph object answers every edge in a shuffled order, so the prefix
    # memo built for one target edge is reused by later ones with the same tail
    rng = derive_rng(31)
    checked = truncated = 0
    for _ in range(60):
        graph, edges = random_digraph(rng, max_nodes=8, edge_prob=0.5)
        if not edges:
            continue
        cfg = PathEnumConfig(
            max_path_length=int(rng.integers(1, graph.node_count + 1)),
            max_paths=int(rng.integers(1, 6)),
        )
        for source in (0, 1):
            for i in rng.permutation(len(edges)):
                target = edges[int(i)]
                result = enumerate_paths(graph, source, target, cfg)
                every = all_simple_paths_to_edge(edges, source, target, cfg.max_path_length)
                ranked = sorted(every, key=lambda p: (len(p), p))
                assert [p.vertices for p in candidates(result)] == sorted(ranked[: cfg.max_paths])
                assert result.truncated == (len(every) > cfg.max_paths)
                checked += 1
                truncated += result.truncated
    assert checked >= 1000
    assert truncated >= 200


def test_prefix_memo_serves_interleaved_path_bounds_on_cyclic_graphs():
    # the prefix memo is keyed without the path bound, so one graph object
    # answering targets under several bounds must match the oracle for each
    rng = derive_rng(47)
    checked = cyclic = 0
    for _ in range(40):
        graph, edges = random_digraph(rng, max_nodes=8, edge_prob=0.5)
        if not edges:
            continue
        cyclic += any((v, u) in graph._edges for u, v in edges)
        bounds = [int(b) for b in rng.permutation(8)[: int(rng.integers(2, 4))] + 1]
        for source in (0, 1):
            for i in rng.permutation(len(edges)):
                target = edges[int(i)]
                cfg = PathEnumConfig(max_path_length=bounds[checked % len(bounds)], max_paths=5)
                result = enumerate_paths(graph, source, target, cfg)
                every = all_simple_paths_to_edge(edges, source, target, cfg.max_path_length)
                ranked = sorted(every, key=lambda p: (len(p), p))
                assert [p.vertices for p in candidates(result)] == sorted(ranked[: cfg.max_paths])
                assert result.truncated == (len(every) > cfg.max_paths)
                checked += 1
    assert checked >= 800
    assert cyclic >= 30


def test_walk_masks_stay_within_the_path_bound():
    # a long chain, with a node of two followees away from it
    graph = build_graph([(i, i + 1) for i in range(1000)] + [(-1, -3), (-2, -3)])
    assert graph._shape() == "dag"
    cfg = PathEnumConfig(max_path_length=8)
    result = enumerate_paths(graph, 992, (999, 1000), cfg)
    assert [p.vertices for p in candidates(result)] == [tuple(range(992, 1001))]
    assert enumerate_paths(graph, 991, (999, 1000), cfg).prefixes == ()
    # the reverse search stops at the bound, not at the chain's far end
    assert [len(masks) for masks in graph._mask_cache.values()] == [8]


@pytest.mark.parametrize("max_len", range(1, 7))
def test_source_at_the_path_bound_matches_the_oracle(max_len):
    # the source 0 sits exactly max_len - 1 edges from the tail u, on the
    # masks' outermost step; -1 sits one edge too far
    u = max_len - 1
    line = [(i, i + 1) for i in range(max_len)] + [(-1, 0)]
    graphs = [(line, (u, u + 1))]
    if max_len > 1:
        ring = [(i, (i + 1) % max_len) for i in range(max_len)]
        graphs.append((ring + [(-1, 0), (u, 100)], (u, 100)))
        graphs.append((line + [(1, 50), (50, 1)], (u, u + 1)))  # walks that are not paths
    for edges, target in graphs:
        graph = build_graph(edges)
        for source in (0, -1):
            cfg = PathEnumConfig(max_path_length=max_len, max_paths=10**6)
            result = enumerate_paths(graph, source, target, cfg)
            expected = all_simple_paths_to_edge(edges, source, target, max_len)
            assert [p.vertices for p in candidates(result)] == expected
            assert len(expected) == (source == 0)


def test_prefix_search_runs_only_for_lengths_with_walks():
    # layered DAG: every walk from the source to a layer-4 node has 4 edges
    layers = [[0]] + [[10 * layer + j for j in range(3)] for layer in range(1, 6)]
    graph = build_graph([(a, b) for upper, lower in zip(layers, layers[1:])
                         for a in upper for b in lower])
    result = enumerate_paths(graph, 0, (40, 50))
    assert len(result) == 27
    assert {length for _, _, length in graph._prefix_cache} == {4}


def _random_followee_graph(rng):
    """Random graph in which every node has at most one followee; directed
    cycles are common."""
    n = int(rng.integers(3, 13))
    edges = []
    for v in range(n):
        if rng.random() < 0.85:
            u = int(rng.integers(n - 1))
            edges.append((u + (u >= v), v))
    return build_graph(edges), edges


def test_followee_chain_walk_matches_the_oracle():
    rng = derive_rng(77)
    seen = dict.fromkeys(("found", "v_on_chain", "v_is_source", "unreachable",
                          "beyond_bound", "cyclic"), 0)
    for _ in range(60):
        graph, edges = _random_followee_graph(rng)
        if not edges:
            continue
        assert graph._shape() == "single"
        seen["cyclic"] += _has_cycle(edges)
        for source in graph.nodes():
            for target in edges:
                unbounded = all_simple_paths_to_edge(edges, source, target, 10**6)
                for max_len in range(1, 9):
                    cfg = PathEnumConfig(max_path_length=max_len)
                    result = enumerate_paths(graph, source, target, cfg)
                    expected = all_simple_paths_to_edge(edges, source, target, max_len)
                    assert [p.vertices for p in candidates(result)] == expected
                    assert followee_path(graph, source, target, max_len) == (
                        tuple(zip(expected[0][:-1], expected[0][1:])) if expected else ())
                    assert not result.truncated
                    seen["found"] += bool(expected)
                    seen["v_is_source"] += target[1] == source
                    seen["beyond_bound"] += bool(unbounded) and not expected
                    # with one followee each, the head v is on u's chain only
                    # through the cycle closed by (u, v), or as the source
                    chain = _followee_walk(graph, target[0])
                    seen["v_on_chain"] += target[1] in chain and target[1] != source
                    seen["unreachable"] += source not in chain
    assert min(seen.values()) >= 20, seen


def _followee_walk(graph, node):
    """``node`` and its followees upward, until the chain ends or repeats."""
    chain = [node]
    while graph._pred[chain[-1]] and graph._pred[chain[-1]][0] not in chain:
        chain.append(graph._pred[chain[-1]][0])
    return chain


def _has_cycle(edges):
    followee = {v: u for u, v in edges}
    for start in followee:
        node, steps = start, 0
        while node in followee and steps <= len(followee):
            node, steps = followee[node], steps + 1
            if node == start:
                return True
    return False


def test_chain_walk_cases():
    graph = build_graph([(i, i + 1) for i in range(12)]
                        + [(20, 21), (21, 22), (22, 20), (22, 23)])
    cfg = PathEnumConfig(max_path_length=4)

    def vertices(source, target):
        return [p.vertices for p in candidates(enumerate_paths(graph, source, target, cfg))]

    assert vertices(2, (4, 5)) == [(2, 3, 4, 5)]
    assert followee_path(graph, 2, (4, 5), 4) == ((2, 3), (3, 4), (4, 5))
    assert followee_path(graph, 2, (4, 5), 3) == ((2, 3), (3, 4), (4, 5))
    assert followee_path(graph, 2, (4, 5), 2) == ()  # three edges > 2
    assert enumerate_paths(graph, 0, (4, 5), cfg).prefixes == ()  # five edges > 4
    assert enumerate_paths(graph, 5, (4, 5), cfg).prefixes == ()  # v is the source
    assert enumerate_paths(graph, 7, (4, 5), cfg).prefixes == ()  # source below the tail
    assert enumerate_paths(graph, 0, (21, 22), cfg).prefixes == ()  # a cycle without the source
    assert vertices(20, (21, 22)) == [(20, 21, 22)]
    assert vertices(21, (22, 20)) == [(21, 22, 20)]
    assert vertices(20, (22, 23)) == [(20, 21, 22, 23)]
    assert enumerate_paths(graph, 20, (22, 20), cfg).prefixes == ()  # v is the source
    assert enumerate_paths(graph, 22, (21, 22), cfg).prefixes == ()  # v is the source
    assert vertices(4, (4, 5)) == [(4, 5)]
    assert followee_path(graph, 4, (4, 5), 1) == ((4, 5),)
    for source, target in [(5, (4, 5)), (7, (4, 5)), (0, (21, 22)), (22, (21, 22))]:
        assert followee_path(graph, source, target, 4) == ()

    class CountingPred(dict):
        reads = 0

        def __getitem__(self, node):
            self.reads += 1
            assert self.reads <= 6, "the walk went round the cycle again"
            return super().__getitem__(node)

    # the walk stops on its first revisit, however large the bound: of v, or
    # of the tail of (22, 23) on a cycle that misses the source
    for target in [(21, 22), (22, 23)]:
        graph._pred = CountingPred(graph._pred)
        assert followee_path(graph, 0, target, 10**9) == ()


def test_followee_path_answers_only_single_followee_graphs():
    single = build_graph([(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="source 9 is not a node"):
        followee_path(single, 9, (1, 2), 8)
    with pytest.raises(GraphError, match="source 9 is not a node"):
        enumerate_paths(single, 9, (1, 2))
    diamond = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)])
    cyclic = build_graph([(0, 1), (1, 2), (2, 1), (0, 2)])
    for graph in (diamond, cyclic):
        assert followee_path(graph, 0, (1, 3) if graph is diamond else (1, 2), 8) is None
        assert followee_path(graph, 9, (0, 1), 8) is None  # the source is checked only after


def test_path_bounds_above_the_node_count_are_clamped():
    # no simple path has more than node_count - 1 edges, so a larger bound
    # still finds every path, and no walk mask or forward layer goes past it
    edges = [(u, v) for u in range(5) for v in range(5) if u != v]
    graph = build_graph(edges)
    huge = PathEnumConfig(max_path_length=10**9, max_paths=10**6)
    for target in edges:
        result = enumerate_paths(graph, 0, target, huge)
        expected = all_simple_paths_to_edge(edges, 0, target, graph.node_count)
        assert sorted(p.vertices for p in candidates(result)) == expected
    masks = [mask for memo in graph._mask_cache.values() for mask in memo.values()]
    assert max(masks).bit_length() == graph.node_count - 1  # prefixes of up to n - 2 edges
    dag = build_graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    ball = forward_ball(dag, 0, 10**9)
    assert ball is forward_ball(dag, 0, dag.node_count - 1)
    assert len(ball.steps) == 3  # the longest walk, 0 -> 1 -> 3 -> 4, has three edges
