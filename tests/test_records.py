"""The frozen records: every value and result type of the package, each
built through the library, behaves as the frozen dataclass of the same
name and fields would, which these tests build as the oracle."""

import dataclasses

import pytest

from hypercube_codes._record import Record
from hypercube_codes.basisprob import SimplexPoint
from hypercube_codes.codes import (Code, LayerAssignment, best_residue_subcode,
                                   build_layer_vectors, subcube_hitting_set)
from hypercube_codes.cube import max_subcube_count, verify_hitting
from hypercube_codes.extremal import (MaxCodeResult, basis_subset_bounds,
                                      list_size_bounds_table, max_basis_subsets,
                                      max_basis_subsets_any_k, max_code_search,
                                      max_partition_product_sum, partition_growth_check)
from hypercube_codes.geometry import Subcube
from hypercube_codes.gf2 import BitWord, GF2Matrix
from hypercube_codes.hypergraph import basis_hypergraph, complete, lagrangian


def _code(i):
    return subcube_hitting_set(6 + i, 1).code


# two different records of each class, by the index 0 or 1
BUILDERS = {
    "SimplexPoint": lambda i: SimplexPoint.uniform(2 + i),
    "Code": _code,
    "LayerAssignment": lambda i: build_layer_vectors(4, seed=i)[3],
    "ResidueSelection": lambda i: best_residue_subcode(_code(0), 3 + i),
    "HittingSetResult": lambda i: subcube_hitting_set(6, 1 + i),
    "VerificationReport": lambda i: max_subcube_count(_code(0), 2 + i),
    "HittingReport": lambda i: verify_hitting(_code(0), 1 + 3 * i),
    "BasisSubsetMaximum": lambda i: max_basis_subsets(2, 4 + i),
    "BasisSubsetBounds": lambda i: basis_subset_bounds(2, 4 + i),
    "ShapeMaximum": lambda i: max_basis_subsets_any_k(4 + i),
    "PartitionMaximum": lambda i: max_partition_product_sum(5 + i),
    "ListSizeBoundsRow": lambda i: list_size_bounds_table(4)[2 + i],
    "PartitionGrowthCheck": lambda i: partition_growth_check(6 + 3 * i),
    "MaxCodeResult": lambda i: max_code_search(3, 1 + i, 1),
    "Subcube": lambda i: max_subcube_count(_code(0), 2 + i).witness,
    "BitWord": lambda i: BitWord.from01("0110"[i:]),
    "GF2Matrix": lambda i: max_basis_subsets(2, 4 + i).witness,
    "UniformHypergraph": lambda i: complete(2 + i, 4),
    "LagrangianResult": lambda i: lagrangian(basis_hypergraph(2), restarts=2 + i),
}
# these two keep their own __init__ (words or edges in any form), __eq__
# and __hash__, over numpy arrays
OWN_INIT = {"Code", "UniformHypergraph"}


def _fields(record) -> list[str]:
    return list(type(record)._fields)


def _values(record) -> list:
    return [getattr(record, name) for name in _fields(record)]


def _twin(record):
    """The frozen dataclass of the same name and fields, with the same
    values."""
    cls = dataclasses.make_dataclass(type(record).__name__, _fields(record), frozen=True)
    return cls(*_values(record))


def _sibling(record):
    """A record of another class with the same name, fields and values."""
    fields = dict.fromkeys(_fields(record), "object")
    return type(type(record).__name__, (Record,), {"__annotations__": fields})(*_values(record))


def test_every_record_class_is_built():
    package = {cls.__name__ for cls in Record.__subclasses__()
               if cls.__module__.startswith("hypercube_codes.")}
    assert package == set(BUILDERS)


@pytest.fixture(params=sorted(BUILDERS))
def pair(request):
    return BUILDERS[request.param](0), BUILDERS[request.param](1)


def test_equality_is_field_by_field_within_one_class(pair):
    a, b = pair
    again = type(a)(*_values(a))
    assert a == again and not a != again
    assert hash(a) == hash(again)
    assert a != b and not a == b
    # the same fields and values in another class are not equal
    assert a != _twin(a) and _twin(a) != a
    assert a != _sibling(a) and _sibling(a) != a
    assert a != tuple(_values(a))
    if type(a).__name__ not in OWN_INIT:
        assert type(a)(**dict(zip(_fields(a), _values(a)))) == a
        assert hash(a) == hash(_twin(a))


def test_repr_is_the_dataclass_repr(pair):
    for record in pair:
        assert repr(record) == repr(_twin(record))
        assert repr(record).startswith(type(record).__name__ + "(")


def test_fields_cannot_be_set_or_deleted(pair):
    a, _ = pair
    before = _values(a)
    for name in [*_fields(a), "extra"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
    assert all(x is y for x, y in zip(_values(a), before))


def test_init_refuses_calls_that_do_not_match_the_fields(pair):
    a, _ = pair
    values = _values(a)
    with pytest.raises(TypeError):
        type(a)(*values, 0)
    with pytest.raises(TypeError):
        type(a)(*values[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        type(a)(*values, bogus=0)
    if type(a).__name__ not in OWN_INIT:
        first = _fields(a)[0]
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            type(a)(*values, **{first: values[0]})
        with pytest.raises(TypeError, match=repr(_fields(a)[-1])):
            type(a)(**dict(zip(_fields(a)[:-1], values)))


@pytest.mark.parametrize("build", [
    lambda: Subcube(3, (0,), 1),  # base not zero on the free coordinate
    lambda: Subcube(n=3, free=(1, 0), base=0),  # the keyword call validates too
    lambda: BitWord(4, 2),
    lambda: BitWord(bits=0, n=-1),
    lambda: GF2Matrix(2, (4,)),
    lambda: SimplexPoint(2, (0.5, 0.5, 0.5)),
    lambda: LayerAssignment(2, 2, (1,), 0, 0),
    lambda: LayerAssignment(2, 2, (1, 4), seed=0, retry=0),
], ids=["subcube", "subcube-keywords", "bitword", "bitword-keywords", "gf2matrix",
        "simplexpoint", "layerassignment-count", "layerassignment-vector"])
def test_validators_run_on_every_call(build):
    with pytest.raises(ValueError):
        build()


def test_cached_properties_are_kept_and_left_out_of_the_record():
    code = _code(0)
    assert "words" not in vars(code)
    words = code.words
    assert code.words is words and words == frozenset(code.array.tolist())
    assert vars(code)["words"] is words

    result = max_code_search(3, 1, 1)
    shown = repr(result)
    witness = result.witness
    assert result.witness is witness
    assert witness == Code(result.n, result.words)
    # the cached value is no field: repr, equality and hash ignore it
    again = MaxCodeResult(*_values(result))
    assert repr(result) == shown and result == again and hash(result) == hash(again)
