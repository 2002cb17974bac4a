"""The immutable value classes: Graph, SubcubicTree, PauliOperator and the
formula nodes are frozen records with field equality, a stable repr, and
pickling through their constructors."""

import copy
import pickle

import pytest

from gslogic import Graph, PauliOperator, SubcubicTree
from gslogic.logic import MAX_NESTING, And, Edge, Eq, Exists, Not, parse_formula
from gslogic.rankwidth import tree_from_choices

# one value of each kind, and a field of it to try to change
VALUES = {
    "graph": (lambda: Graph.from_edges(3, [(0, 1), (1, 2)], name="path:3"), "n"),
    "tree": (lambda: tree_from_choices(4, [0, 1]), "edges"),
    "pauli": (lambda: PauliOperator(3, 5, 4, -1), "sign"),
    "formula": (lambda: parse_formula("exists X. forall x. x in X | !edge(x, x)"), "var"),
    # a formula at the height bound: every protocol step walks 100 levels
    "deep formula": (lambda: parse_formula(
        "exists x. " + " & ".join(["x = x"] * (MAX_NESTING - 1))), "body"),
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_round_trip_through_pickle_and_deepcopy(kind):
    value = VALUES[kind][0]()
    # repr shows every field, Graph.name included
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                   copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)
        assert repr(copied) == repr(value)


@pytest.mark.parametrize("kind", VALUES)
def test_values_refuse_assignment_and_del(kind):
    make, field = VALUES[kind]
    value = make()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_a_tree_stores_only_its_fields():
    # the leaf masks are O(n^2) bits on a path-shaped tree, so a tree keeps
    # none and computes them at each call
    assert SubcubicTree.__slots__ == SubcubicTree._fields == ("n", "edges")


def test_nodes_of_different_classes_with_equal_fields_differ():
    assert Edge("x", "y") != Eq("x", "y")
    assert Edge("x", "y") == Edge("x", "y")
    assert hash(Edge("x", "y")) == hash(Edge("x", "y"))
    assert Edge("x", "y") != Edge("y", "x")
    assert len({Edge("x", "y"), Eq("x", "y"), Edge("x", "y")}) == 2


def test_graphs_differing_only_in_name_are_equal():
    a = Graph(2, (2, 1), name="a")
    b = Graph.from_edges(2, [(0, 1)], name="b")
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Graph(n=2, adj=(2, 1), name='a')"
    assert repr(b) == "Graph(n=2, adj=(2, 1), name='b')"
    assert Graph(2, (0, 0)) != a


@pytest.mark.parametrize("build", [
    lambda: Graph(3),
    lambda: Graph(0, (), None, None),
    lambda: SubcubicTree(2),
    lambda: PauliOperator(1, 0),
    lambda: Edge("x"),
    lambda: Not(Eq("x", "x"), Eq("x", "x")),
    lambda: Exists("x"),
])
def test_wrong_arity_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_nesting_past_the_bound_raises_value_error():
    chain = Eq("x", "x")
    for _ in range(MAX_NESTING - 1):
        chain = And(chain, Eq("x", "x"))
    assert chain.height == MAX_NESTING
    with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
        Not(chain)


def test_reprs_are_pinned():
    assert repr(Graph.from_edges(3, [(0, 1), (1, 2)], name="path:3")) == \
        "Graph(n=3, adj=(2, 5, 2), name='path:3')"
    assert repr(Graph(2, (2, 1))) == "Graph(n=2, adj=(2, 1), name=None)"
    assert repr(tree_from_choices(4, [0, 1])) == \
        "SubcubicTree(n=4, edges=((0, 4), (4, 5), (4, 2), (5, 1), (5, 3)))"
    assert repr(PauliOperator(3, 5, 4, -1)) == \
        "PauliOperator(n=3, x_bits=5, z_bits=4, sign=-1)"
    assert repr(PauliOperator(2, 1, 0)) == "PauliOperator(n=2, x_bits=1, z_bits=0, sign=1)"
