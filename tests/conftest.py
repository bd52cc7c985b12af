import gc

import pytest

from cascaudit.graph import Prefix, SocialGraph
from cascaudit.inference import _evidence_key
from cascaudit.markov import Observation, ObservationStream, SpreadModel, reference_model

from .oracles import all_simple_paths_to_edge

# Three-level demo graph: a wide tree from source 1 plus a handful of cross
# edges, so several target edges have multiple candidate source paths.
DEMO_TREE_EDGES = [
    (1, 2), (1, 3), (1, 4),
    (2, 5), (2, 6),
    (3, 7), (3, 8), (3, 9),
    (4, 10), (4, 11),
    (5, 12), (5, 13), (5, 14),
    (6, 15),
    (7, 16), (7, 17), (7, 18),
    (8, 19), (8, 20),
    (9, 21), (9, 22),
    (10, 23), (10, 24),
    (11, 25), (11, 26), (11, 27),
]

DEMO_CROSS_EDGES = [
    (1, 6), (6, 14), (6, 16), (7, 19), (9, 23), (4, 24), (1, 23),
]


@pytest.fixture(autouse=True)
def _unfreeze_after_test():
    """``cli.main`` freezes the heap; thaw it after each test, so in-process
    CLI calls do not pin pytest's heap for the rest of the session."""
    yield
    gc.unfreeze()


def build_graph(edges):
    return SocialGraph(edges, sorted({n for e in edges for n in e}))


def candidates(enumeration):
    """Each candidate path of ``enumeration``, as a :class:`Prefix` of the
    whole path: its prefix followed by the target edge."""
    u, v = enumeration.target_edge
    return [Prefix(p.vertices + (v,), p.edges + ((u, v),)) for p in enumeration.prefixes]


def evidence_keys(enumeration, by_edge):
    """The engine's evidence key of each candidate of ``enumeration``, given
    its index ``by_edge`` of accepted observations."""
    return [_evidence_key(prefix.edges, by_edge) for prefix in enumeration.prefixes]


def build_chain_graph(length):
    """Directed chain 0 -> 1 -> ... -> length."""
    return build_graph([(i, i + 1) for i in range(length)])


@pytest.fixture(scope="session")
def demo_graph():
    return build_graph(DEMO_TREE_EDGES + DEMO_CROSS_EDGES)


@pytest.fixture(scope="session")
def ref_model():
    return reference_model()


@pytest.fixture()
def diamond_graph():
    # s -> a -> t, s -> b -> t, plus t -> w as a target edge
    return build_graph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("t", "w")])


def random_digraph(rng, max_nodes=8, edge_prob=0.35):
    """Random simple digraph on up to ``max_nodes`` integer nodes."""
    n = int(rng.integers(3, max_nodes + 1))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    ]
    return SocialGraph(edges, range(n)), edges


def random_model(rng, num_classes, prior=None):
    """Random well-conditioned spread model (all entries bounded away from 0)."""
    eta = rng.uniform(0.05, 1.0, size=(2, num_classes))
    alpha = rng.uniform(0.05, 1.0, size=(2, num_classes, num_classes))
    eta /= eta.sum(axis=-1, keepdims=True)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    if prior is None:
        prior = float(rng.uniform(0.2, 0.8))
    return SpreadModel(
        num_classes=num_classes,
        initial_probs=eta,
        transition_probs=alpha,
        prior_fake=prior,
    )


def random_inference_instance(rng, max_nodes=8, max_obs=6, max_classes=3):
    """Random (graph, edges, model, stream) with all observed edges reachable."""
    while True:
        graph, edges = random_digraph(rng, max_nodes)
        if not edges:
            continue
        source = 0
        reachable = [
            e for e in edges
            if all_simple_paths_to_edge(edges, source, e, graph.node_count)
        ]
        if reachable:
            break
    num_classes = int(rng.integers(2, max_classes + 1))
    model = random_model(rng, num_classes)
    n_obs = int(rng.integers(1, max_obs + 1))
    observations = []
    used = set()
    for _ in range(n_obs):
        choices = [e for e in reachable if e not in used]
        if not choices:
            break
        edge = choices[int(rng.integers(len(choices)))]
        used.add(edge)
        observations.append(
            Observation(u=edge[0], v=edge[1], cls=int(rng.integers(num_classes)))
        )
    stream = ObservationStream(source=source, observations=tuple(observations))
    return graph, edges, model, stream
