import numpy as np
import pytest

from cascaudit.errors import GraphError
from cascaudit.graph import (
    DirectedPath,
    PathEnumConfig,
    SocialGraph,
    _followee_chain,
    enumerate_paths,
    forward_ball,
    load_graph,
    read_node_features,
    save_graph,
)
from cascaudit.rng import derive_rng

from .conftest import build_graph, random_digraph
from .oracles import all_simple_paths_to_edge


def test_add_node_basics():
    graph = SocialGraph()
    graph.add_node(1, [0.3, 0.7])
    assert graph.node_count == 1
    assert graph.has_node(1)
    assert graph.feature_dim == 2
    np.testing.assert_allclose(graph.features(1), [0.3, 0.7])


def test_add_node_duplicate_id():
    graph = SocialGraph()
    graph.add_node(1, [0.3, 0.7])
    with pytest.raises(GraphError, match="duplicate"):
        graph.add_node(1, [0.1, 0.2])


def test_add_node_dimension_mismatch():
    graph = SocialGraph()
    graph.add_node(1, [0.3, 0.7])
    with pytest.raises(GraphError, match="dimension"):
        graph.add_node(2, [0.1, 0.2, 0.3])


def test_add_edge_directedness():
    graph = SocialGraph()
    graph.add_node(1, [0.0])
    graph.add_node(2, [0.0])
    graph.add_edge(1, 2)
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(2, 1)


def test_add_edge_self_loop():
    graph = SocialGraph()
    graph.add_node(1, [0.0])
    with pytest.raises(GraphError, match="self-loop"):
        graph.add_edge(1, 1)


def test_add_edge_missing_endpoint():
    graph = SocialGraph()
    graph.add_node(1, [0.0])
    with pytest.raises(GraphError, match="not a node"):
        graph.add_edge(1, 9)


def test_frozen_graph_rejects_mutation():
    graph = SocialGraph()
    graph.add_node(1, [0.0])
    graph.freeze()
    with pytest.raises(GraphError, match="frozen"):
        graph.add_node(2, [0.0])


def test_directed_path_invariants():
    path = DirectedPath((1, 2, 6, 14))
    assert len(path) == 3
    assert path.edges == ((1, 2), (2, 6), (6, 14))
    with pytest.raises(GraphError):
        DirectedPath((1,))
    with pytest.raises(GraphError):
        DirectedPath((1, 2, 1))


def test_path_enum_config_validation():
    with pytest.raises(GraphError):
        PathEnumConfig(max_path_length=0)
    with pytest.raises(GraphError):
        PathEnumConfig(max_paths=0)


def test_demo_graph_two_routes(demo_graph):
    result = enumerate_paths(demo_graph, 1, (6, 14), PathEnumConfig(max_path_length=8))
    assert [p.vertices for p in result.paths] == [(1, 2, 6, 14), (1, 6, 14)]
    assert not result.truncated


def test_source_adjacent_edge_single_path(demo_graph):
    result = enumerate_paths(demo_graph, 1, (1, 2))
    assert [p.vertices for p in result.paths] == [(1, 2)]


def test_diamond_two_paths(diamond_graph):
    result = enumerate_paths(diamond_graph, "s", ("t", "w"))
    got = sorted(p.vertices for p in result.paths)
    expected = all_simple_paths_to_edge(diamond_graph.edges(), "s", ("t", "w"), 8)
    assert got == expected
    assert len(got) == 2


def test_unreachable_edge_yields_empty():
    graph = build_graph([(1, 2), (3, 4)])
    result = enumerate_paths(graph, 1, (3, 4))
    assert result.paths == ()
    assert not result.truncated


def test_every_path_ends_with_target_edge(demo_graph):
    for target in [(6, 14), (6, 16), (7, 19), (9, 23), (10, 23), (4, 24)]:
        result = enumerate_paths(demo_graph, 1, target)
        for path in result.paths:
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
        got = sorted(p.vertices for p in enumerate_paths(graph, source, target, cfg).paths)
        expected = all_simple_paths_to_edge(edges, source, target, graph.node_count)
        assert got == expected
        checked += 1
    assert checked >= 40


def test_lexicographic_order(demo_graph):
    result = enumerate_paths(demo_graph, 1, (10, 23))
    seqs = [p.vertices for p in result.paths]
    assert seqs == sorted(seqs)


def test_determinism(demo_graph):
    a = enumerate_paths(demo_graph, 1, (6, 16))
    b = enumerate_paths(demo_graph, 1, (6, 16))
    assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]


def test_truncation_keeps_shortest_paths():
    # complete-ish digraph: many long routes, one short one
    nodes = list(range(6))
    edges = [(u, v) for u in nodes for v in nodes if u != v]
    graph = build_graph(edges)
    full = enumerate_paths(graph, 0, (4, 5), PathEnumConfig(max_path_length=6, max_paths=100000))
    assert not full.truncated
    capped = enumerate_paths(graph, 0, (4, 5), PathEnumConfig(max_path_length=6, max_paths=4))
    assert capped.truncated
    assert len(capped.paths) == 4
    shortest = sorted(full.paths, key=lambda p: (len(p), p.vertices))[:4]
    assert sorted(p.vertices for p in capped.paths) == sorted(p.vertices for p in shortest)


def test_target_edge_back_to_source():
    graph = build_graph([(1, 2), (2, 1)])
    result = enumerate_paths(graph, 1, (2, 1))
    assert result.paths == ()


def test_edge_list_round_trip(tmp_path, demo_graph):
    edge_file = tmp_path / "edges.tsv"
    feat_file = tmp_path / "features.tsv"
    save_graph(demo_graph, edge_file, feat_file)
    loaded = load_graph(edge_file, feat_file)
    assert loaded.edges() == demo_graph.edges()
    assert loaded.nodes() == demo_graph.nodes()
    assert loaded.feature_dim == demo_graph.feature_dim


def test_feature_records_parse_in_one_array_and_errors_name_the_line(tmp_path):
    feat_file = tmp_path / "features.tsv"
    feat_file.write_text("a\t0.1,-2e3\n\n7\t1_0, inf\na\t3,4\n", encoding="utf-8")
    table = read_node_features(feat_file)
    assert list(table) == ["a", 7]  # a repeated id keeps its last record
    assert table["a"].tolist() == [3.0, 4.0] and table[7].tolist() == [10.0, np.inf]
    for text, message in (
        ("", None),
        ("1\t0.5,1\n2\t0.5\n", r":2: feature dimension 1 for 2 does not match .* 2$"),
        ("1\t0.5,x\n2\t0.5\n", r":2: feature dimension 1 for 2"),  # lengths first
        ("1\t0.5,1\n2\t0.5,1\n3\tx,1\n", r":3: bad feature record: .*'x'"),
        ("1\t0.5,1\n2 0.5,1\n", r":2: bad feature record"),
    ):
        feat_file.write_text(text, encoding="utf-8")
        if message is None:
            assert read_node_features(feat_file) == {}
            continue
        with pytest.raises(GraphError, match=message):
            read_node_features(feat_file)


def test_load_graph_without_features(tmp_path):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("1\t2\n2\t3\n", encoding="utf-8")
    graph = load_graph(edge_file)
    assert graph.has_edge(1, 2) and graph.has_edge(2, 3)


def test_load_graph_shares_one_zero_vector_among_featureless_nodes(tmp_path):
    edge_file, feat_file = tmp_path / "edges.tsv", tmp_path / "features.tsv"
    edge_file.write_text("1\t2\n2\t3\n3\t4\n", encoding="utf-8")
    feat_file.write_text("2\t0.5,1.5\n9\t1.0,1.0\n", encoding="utf-8")
    graph = load_graph(edge_file, feat_file)
    assert graph.features(2).tolist() == [0.5, 1.5] and graph.features(2).flags.writeable
    zeros = graph.features(1)
    assert zeros.tolist() == [0.0, 0.0] and not zeros.flags.writeable
    assert graph.features(3) is zeros and graph.features(4) is zeros
    assert not graph.has_node(9)  # a featured node without edges stays out
    bare = load_graph(edge_file, feature_dim=3)
    assert bare.features(1).shape == (3,) and not bare.features(1).flags.writeable
    assert all(bare.features(node) is bare.features(1) for node in (2, 3, 4))
    feat_file.write_text("2\t0.5,1.5\n3\t1.0\n", encoding="utf-8")
    with pytest.raises(GraphError, match="feature dimension 1 for 3"):
        load_graph(edge_file, feat_file)


def _grown(edges, nodes=(), features=None, feature_dim=1):
    """The graph of ``edges`` grown one node and one edge at a time."""
    graph = SocialGraph()
    for node in dict.fromkeys([*nodes, *(node for edge in edges for node in edge)]):
        graph.add_node(node, (features or {}).get(node, np.zeros(feature_dim)))
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _assert_same_graph(built, grown):
    assert built._ids == grown._ids and built._index == grown._index
    assert built.nodes() == grown.nodes() and built.edges() == grown.edges()
    assert built.edge_count == grown.edge_count
    for node in grown._ids:
        assert built.followers(node) == grown.followers(node)
        assert built._pred[node] == grown._pred[node]  # followees, in insertion order
        assert built.features(node).tolist() == grown.features(node).tolist()


@pytest.mark.parametrize("seed", range(20))
def test_bulk_build_matches_a_graph_grown_edge_by_edge(tmp_path, seed):
    rng = derive_rng(seed)
    ids = [*range(10), "a", "b", "c"]
    edges = [tuple(ids[int(i)] for i in rng.choice(len(ids), 2, replace=False))
             for _ in range(int(rng.integers(1, 40)))]
    edges += [edges[int(i)] for i in rng.integers(len(edges), size=5)]  # repeated edges
    features = {node: rng.random(3) for node in ids if rng.random() < 0.5}
    features.setdefault("unlinked", rng.random(3))
    built = SocialGraph.from_edges(edges, ("s",), feature_dim=3, features=features)
    _assert_same_graph(built, _grown(edges, ("s",), features, feature_dim=3))
    zeros = built.features("s")
    assert zeros.tolist() == [0.0] * 3 and not zeros.flags.writeable
    for node in built._ids:
        assert built.features(node) is features.get(node, zeros)
    assert not built.has_node("unlinked")

    edge_file, feat_file = tmp_path / "edges.tsv", tmp_path / "features.tsv"
    edge_file.write_text("".join(f"{u}\t{v}\n" for u, v in edges), encoding="utf-8")
    feat_file.write_text("".join(f"{node}\t{','.join(map(repr, vec.tolist()))}\n"
                                 for node, vec in features.items()), encoding="utf-8")
    loaded = load_graph(edge_file, feat_file)
    _assert_same_graph(loaded, _grown(edges, (), features, feature_dim=3))
    featureless = [node for node in loaded._ids if node not in features]
    assert all(loaded.features(node) is loaded.features(featureless[0]) for node in featureless)


def test_bulk_build_keeps_the_edge_checks(tmp_path):
    graph = SocialGraph.from_edges([(0, 1), (0, 1), (1, 0)])
    assert graph.edges() == [(0, 1), (1, 0)] and graph.followers(0) == [1]
    with pytest.raises(GraphError, match="self-loop on 2"):
        SocialGraph.from_edges([(0, 1), (2, 2)])
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("0\t1\n2\t2\n", encoding="utf-8")
    with pytest.raises(GraphError, match="self-loop on 2"):
        load_graph(edge_file)
    with pytest.raises(GraphError, match="dimension 2 for 1 does not match graph dimension 3"):
        SocialGraph.from_edges([(0, 1)], feature_dim=3, features={1: np.ones(2)})


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
    graph = SocialGraph()
    for node in (0, "b", 1, 3, 4):
        graph.add_node(node, [0.0])
    for u, v in ((0, 1), (0, "b"), (1, 3), ("b", 3), (3, 4)):
        graph.add_edge(u, v)
    paths = enumerate_paths(graph, 0, (3, 4)).paths
    assert [p.vertices for p in paths] == [(0, 1, 3, 4), (0, "b", 3, 4)]


def test_followers_stay_sorted_under_any_insertion_order():
    rng = derive_rng(99)
    targets = [int(x) for x in rng.permutation(50) + 1]
    graph = build_graph([(0, t) for t in targets])
    assert graph.followers(0) == sorted(targets)
    mixed = [1, 2, 10, 11, "a", "b", "ab", "z"]
    graph = SocialGraph()
    for node in [0] + mixed:
        graph.add_node(node, [0.0])
    for i in rng.permutation(len(mixed)):
        graph.add_edge(0, mixed[int(i)])
    assert graph.followers(0) == [1, 2, 10, 11, "a", "ab", "b", "z"]


def test_edge_added_after_a_query_is_placed_in_order():
    graph = build_graph([(0, 3), (0, 1), (1, 5), (3, 5), (5, 6)])
    assert graph.followers(0) == [1, 3]
    assert [p.vertices for p in enumerate_paths(graph, 0, (5, 6))] == [(0, 1, 5, 6), (0, 3, 5, 6)]
    graph.add_node(2, [0.0, 0.0])
    graph.add_edge(0, 2)
    graph.add_edge(2, 5)
    assert graph.followers(0) == [1, 2, 3]
    assert [p.vertices for p in enumerate_paths(graph, 0, (5, 6))] == [
        (0, 1, 5, 6), (0, 2, 5, 6), (0, 3, 5, 6)
    ]
    assert graph.freeze().followers(0) == [1, 2, 3]


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
                assert [p.vertices for p in result] == sorted(ranked[: cfg.max_paths])
                assert result.truncated == (len(every) > cfg.max_paths)
                # the DirectedPath objects are built once, on first read
                assert len(result) == len(result.paths)
                assert result.paths is result.paths
                assert [p.edges for p in result] == [
                    prefix.edges + (target,) for prefix in result.prefixes
                ]
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
                assert [p.vertices for p in result] == sorted(ranked[: cfg.max_paths])
                assert result.truncated == (len(every) > cfg.max_paths)
                checked += 1
    assert checked >= 800
    assert cyclic >= 30


def test_walk_masks_stay_within_the_path_bound():
    # a node with two followees, away from the chain, keeps the general search
    # (a graph of chains alone is answered by the followee-chain walk)
    graph = build_graph([(i, i + 1) for i in range(1000)] + [(-1, -3), (-2, -3)])
    assert graph._shape() == "dag"
    cfg = PathEnumConfig(max_path_length=8)
    result = enumerate_paths(graph, 992, (999, 1000), cfg)
    assert [p.vertices for p in result] == [tuple(range(992, 1001))]
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
            assert [p.vertices for p in result] == expected
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
                    assert [p.vertices for p in result] == expected
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
    graph = build_graph([(i, i + 1) for i in range(12)] + [(20, 21), (21, 22), (22, 20)])
    cfg = PathEnumConfig(max_path_length=4)
    assert [p.vertices for p in enumerate_paths(graph, 2, (4, 5), cfg)] == [(2, 3, 4, 5)]
    assert enumerate_paths(graph, 0, (4, 5), cfg).prefixes == ()  # five edges > 4
    assert enumerate_paths(graph, 5, (4, 5), cfg).prefixes == ()  # v is the source
    assert enumerate_paths(graph, 7, (4, 5), cfg).prefixes == ()  # source below the tail
    assert enumerate_paths(graph, 0, (21, 22), cfg).prefixes == ()  # a cycle without the source
    assert [p.vertices for p in enumerate_paths(graph, 20, (21, 22), cfg)] == [(20, 21, 22)]
    assert [p.vertices for p in enumerate_paths(graph, 21, (22, 20), cfg)] == [(21, 22, 20)]
    assert enumerate_paths(graph, 20, (22, 20), cfg).prefixes == ()  # v is the source
    assert enumerate_paths(graph, 22, (21, 22), cfg).prefixes == ()  # v is the source
    assert [p.vertices for p in enumerate_paths(graph, 4, (4, 5), cfg)] == [(4, 5)]

    class CountingPred(dict):
        reads = 0

        def __getitem__(self, node):
            self.reads += 1
            assert self.reads <= 6, "the walk went round the cycle again"
            return super().__getitem__(node)

    # the walk stops on its first revisit, however large the bound
    assert _followee_chain(CountingPred(graph._pred), 0, 21, 22, 10**9) == []


def test_memos_follow_an_edge_added_after_each_query_kind():
    def agrees(graph, edges, source, target=(3, 4)):
        got = [p.vertices for p in enumerate_paths(graph, source, target)]
        return got == all_simple_paths_to_edge(edges, source, target, 8)

    for query in ("enumeration", "shape", "ball", "masks"):
        edges = [(i, i + 1) for i in range(6)]
        graph = build_graph(edges)
        graph.add_node(9, [0.0, 0.0])
        if query == "enumeration":
            assert agrees(graph, edges, 0)
        elif query == "shape":
            assert graph._shape() == "single"
        elif query == "ball":
            assert forward_ball(graph, 0, 8) is None
        else:
            graph._walk_masks(3, 8)
        # node 3 gains a second followee, 9, itself reached from 0
        for edge in ((0, 9), (9, 3)):
            graph.add_edge(*edge)
            edges.append(edge)
        assert graph._shape() == "dag"
        assert agrees(graph, edges, 0)
        ball = forward_ball(graph, 0, 8)
        assert [depth for depth, _ in ball.node_rows[3]] == [2, 3]  # 0 -> 9 -> 3, 0 -> 1 -> 2 -> 3
        # a cycle through the tail turns the graph cyclic
        graph.add_edge(4, 0)
        edges.append((4, 0))
        assert graph._shape() == "cyclic"
        assert forward_ball(graph, 0, 8) is None
        assert agrees(graph, edges, 0) and agrees(graph, edges, 1)


def test_ingestion_clears_no_memo_that_no_query_filled(monkeypatch):
    clears = []
    monkeypatch.setattr(SocialGraph, "_clear_memos", lambda self: clears.append(self))
    graph = SocialGraph.from_edges([(0, 1), (1, 2), (0, 3)], feature_dim=2)
    assert clears == []
    assert graph.features(3).shape == (2,) and not graph.features(3).flags.writeable
    assert graph.features(0) is graph.features(3)
    assert [p.vertices for p in enumerate_paths(graph, 0, (1, 2))] == [(0, 1, 2)]
    graph.add_edge(3, 2)
    assert clears == [graph]
