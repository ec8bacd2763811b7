"""Junk at every public entry point: constructors, query functions, CLI verbs.

A library call either answers or raises ValidationError (or
EnumerationLimitError at a cap); a CLI verb exits 0 or 1 and reports a
failure as one `error:` line, never as a traceback. Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import random
import tempfile
from itertools import islice
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from positroids import (
    ArrowTable,
    BasisCollection,
    CyclicInterval,
    DecoratedPermutation,
    EnumerationLimitError,
    ExchangeKind,
    ExchangeRecord,
    GrassmannNecklace,
    IntervalDecomposition,
    NonCrossingPartition,
    Positroid,
    RationalMatrix,
    ValidationError,
    align_basis,
    arrow_table,
    bound_for_partition,
    ccw_count,
    cw_count,
    cyclic_leq,
    cyclic_less,
    decompose,
    enumerate_bases,
    enumerate_ncp,
    first_negative_minor,
    format_set_spec,
    gale_leq,
    half_open,
    interval_contains,
    interval_exchange,
    is_compatible,
    is_totally_nonnegative,
    loops_and_coloops,
    matroid_from_matrix,
    maximal_minor,
    mimic,
    min_elements,
    morph_sequence,
    natural_bound,
    necklace_from_bases,
    necklace_of,
    open_interval,
    parse_set_spec,
    permutation_of,
    position,
    positroid_from_matrix,
    random_tnn_matrix,
    rank,
    rank_bruteforce,
    rank_dp,
    rank_of_interval,
    reduce,
    row_rank,
    witness_basis,
)
from positroids.cli import main
from positroids.cyclic import next_element, prev_element

# a decorated positroid on 1..6 with a loop (3) and a coloop (6)
P = Positroid.from_oneline((2, 1, 3, 5, 4, 6), white=(3,), black=(6,))
PERM = P.perm
NECK = P.necklace
E = frozenset({1, 2, 4})
D = decompose(E, 6)
IV = CyclicInterval.span(1, 3, 6)
NCP = NonCrossingPartition.from_blocks(2, [[1], [2]])
BASIS = frozenset(NECK.at(1))
MATRIX = RationalMatrix.from_rows(((1, 0, -3, -1), (0, 1, 4, 0)))
BASES = matroid_from_matrix(MATRIX)
SETS = [sorted(I) for I in NECK.sets]

# (name, callable, valid positional arguments, valid keyword arguments)
CALLS = [
    ("position", position, (1, 2, 6), {}),
    ("next_element", next_element, (1, 6), {}),
    ("prev_element", prev_element, (1, 6), {}),
    ("cyclic_less", cyclic_less, (1, 2, 3, 6), {}),
    ("cyclic_leq", cyclic_leq, (1, 2, 3, 6), {}),
    ("CyclicInterval", CyclicInterval, (6, 1, 3), {}),
    ("CyclicInterval.span", CyclicInterval.span, (1, 3, 6), {}),
    ("CyclicInterval.empty", CyclicInterval.empty, (6,), {}),
    ("CyclicInterval.full", CyclicInterval.full, (6,), {}),
    ("CyclicInterval.contains", IV.contains, (2,), {}),
    ("CyclicInterval.contains_interval", IV.contains_interval, (IV,), {}),
    ("open_interval", open_interval, (2, 5, 6), {}),
    ("half_open", half_open, (2, 5, 6), {}),
    ("interval_contains", interval_contains, ((1, 4), (2, 3), 6), {}),
    ("IntervalDecomposition", IntervalDecomposition, (6, ((1, 2), (4, 4))), {}),
    ("decompose", decompose, (E, 6), {}),
    ("IntervalDecomposition.interval", D.interval, (1,), {}),
    ("IntervalDecomposition.restrict", D.restrict, ([1],), {}),
    ("gale_leq", gale_leq, ({1, 2}, {3, 4}, 1, 6), {}),
    ("parse_set_spec", parse_set_spec, ("1-2,4", 6), {}),
    ("format_set_spec", format_set_spec, (E, 6), {}),
    ("DecoratedPermutation", DecoratedPermutation,
     (6, PERM.images, PERM.white, PERM.black), {}),
    ("DecoratedPermutation.from_oneline", DecoratedPermutation.from_oneline,
     ((2, 1, 3, 5, 4, 6), (3,), (6,)), {}),
    ("DecoratedPermutation.from_json", DecoratedPermutation.from_json, (PERM.to_json(),), {}),
    ("DecoratedPermutation.pi", PERM.pi, (1,), {}),
    ("DecoratedPermutation.pi_inv", PERM.pi_inv, (1,), {}),
    ("DecoratedPermutation.color", PERM.color, (3,), {}),
    ("GrassmannNecklace", GrassmannNecklace, (6, NECK.d, NECK.sets), {}),
    ("GrassmannNecklace.from_sets", GrassmannNecklace.from_sets, (SETS, 6), {}),
    ("GrassmannNecklace.from_json", GrassmannNecklace.from_json, (NECK.to_json(),), {}),
    ("GrassmannNecklace.at", NECK.at, (1,), {}),
    ("Positroid", Positroid, (PERM,), {}),
    ("Positroid.from_oneline", Positroid.from_oneline, ((2, 1, 3, 5, 4, 6), (3,), (6,)), {}),
    ("Positroid.from_necklace", Positroid.from_necklace, (NECK,), {}),
    ("Positroid.from_json", Positroid.from_json, (PERM.to_json(),), {}),
    ("Positroid.is_basis", P.is_basis, (BASIS,), {}),
    ("necklace_of", necklace_of, (PERM,), {}),
    ("permutation_of", permutation_of, (NECK,), {}),
    ("enumerate_bases", enumerate_bases, (P,), {}),
    ("rank_bruteforce", rank_bruteforce, (P, E), {}),
    ("loops_and_coloops", loops_and_coloops, (P,), {}),
    ("reduce", reduce, (P,), {}),
    ("NonCrossingPartition", NonCrossingPartition, (2, ((1,), (2,))), {}),
    ("NonCrossingPartition.from_blocks", NonCrossingPartition.from_blocks, (2, [[2], [1]]), {}),
    ("enumerate_ncp", enumerate_ncp, (3,), {"limit": 16}),
    ("ArrowTable", ArrowTable, (PERM,), {}),
    ("ArrowTable.ccw_row", ArrowTable(PERM).ccw_row, (1,), {}),
    ("arrow_table", arrow_table, (P,), {}),
    ("cw_count", cw_count, (P, IV), {}),
    ("ccw_count", ccw_count, (P, IV), {}),
    ("rank_of_interval", rank_of_interval, (P, 1, 3), {}),
    ("min_elements", min_elements, (P, 3, 1), {}),
    ("natural_bound", natural_bound, (P, D), {}),
    ("bound_for_partition", bound_for_partition, (P, D, NCP), {}),
    ("rank", rank, (P, E), {"all_bounds": True, "limit": 16}),
    ("rank_dp", rank_dp, (P, E), {}),
    ("ExchangeRecord", ExchangeRecord, (ExchangeKind.MIMIC, (5,), (1,)), {}),
    ("interval_exchange", interval_exchange, (P, BASIS, 1, 2), {}),
    ("is_compatible", is_compatible, (P, BASIS, 2, (6, 4)), {}),
    ("mimic", mimic, (P, NECK.at(2), 4, (1, 5)), {}),
    ("morph_sequence", morph_sequence, (P, D, 1), {}),
    ("align_basis", align_basis, (P, witness_basis(P, E), D, 1), {"trace": []}),
    ("witness_basis", witness_basis, (P, E), {}),
    ("RationalMatrix", RationalMatrix, (MATRIX.entries,), {}),
    ("RationalMatrix.from_rows", RationalMatrix.from_rows, (MATRIX.to_json(),), {}),
    ("RationalMatrix.from_json", RationalMatrix.from_json, (MATRIX.to_json(),), {}),
    ("RationalMatrix.column_submatrix", MATRIX.column_submatrix, ((1, 2),), {}),
    ("BasisCollection", BasisCollection, (BASES.n, BASES.d, BASES.bases), {}),
    ("BasisCollection.from_sets", BasisCollection.from_sets,
     ([sorted(B) for B in BASES.bases], 4), {}),
    ("matroid_from_matrix", matroid_from_matrix, (MATRIX,), {}),
    ("is_totally_nonnegative", is_totally_nonnegative, (MATRIX,), {}),
    ("first_negative_minor", first_negative_minor, (MATRIX,), {}),
    ("maximal_minor", maximal_minor, (MATRIX, (1, 2)), {}),
    ("row_rank", row_rank, (MATRIX,), {}),
    ("necklace_from_bases", necklace_from_bases, (BASES,), {}),
    ("positroid_from_matrix", positroid_from_matrix, (MATRIX,), {}),
    ("random_tnn_matrix", random_tnn_matrix, (2, 5, random.Random(1)), {"ops": 12}),
]

# small values only: a junk ground-set size must not start a huge enumeration
_LEAF = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.integers(-3, 24),
)
JUNK = st.one_of(
    _LEAF,
    st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=4), max_leaves=8),
    st.frozensets(st.integers(-2, 9) | st.booleans(), max_size=4),
    st.dictionaries(st.text(max_size=3), _LEAF, max_size=3),
)


def _consume(result: object) -> None:
    # a generator only checks its arguments once it runs
    if isinstance(result, GeneratorType):
        list(islice(result, 40))


@pytest.mark.parametrize("fn,args,kwargs", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_valid_arguments_are_answered(fn, args, kwargs):
    _consume(fn(*args, **kwargs))


@pytest.mark.parametrize("fn,args,kwargs", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_junk_arguments_raise_only_validation_errors(fn, args, kwargs, data):
    names = list(range(len(args))) + list(kwargs)
    junked = data.draw(st.sets(st.sampled_from(names), min_size=1))
    call_args = [data.draw(JUNK) if i in junked else a for i, a in enumerate(args)]
    call_kwargs = {k: data.draw(JUNK) if k in junked else v for k, v in kwargs.items()}
    try:
        _consume(fn(*call_args, **call_kwargs))
    except (ValidationError, EnumerationLimitError):
        pass


ONE_INTERVAL = decompose({1}, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ONE_INTERVAL.interval("a"),
        lambda: ONE_INTERVAL.interval(True),
        lambda: ONE_INTERVAL.interval(1.0),
        lambda: ONE_INTERVAL.restrict(["a"]),
        lambda: ONE_INTERVAL.restrict([1, True]),
        lambda: NECK.at("a"),
        lambda: NECK.at(1.5),
        lambda: NECK.at(True),
    ],
    ids=["interval-str", "interval-bool", "interval-float", "restrict-str",
         "restrict-bool", "at-str", "at-float", "at-bool"],
)
def test_index_arguments_must_be_ints(call):
    # True == 1 and 1.0 == 1 would otherwise pick the first entry
    with pytest.raises(ValidationError, match="must be integers"):
        call()



@pytest.mark.parametrize(
    "call",
    [lambda: parse_set_spec("", None), lambda: natural_bound(P, decompose((), 5))],
    ids=["parse_set_spec", "natural_bound"],
)
def test_empty_sets_still_check_their_ground_set(call):
    with pytest.raises(ValidationError):
        call()


# past 4,300 digits str() refuses an int, so a message names it by its length
HUGE = 10**5000
SMALL = Positroid.from_oneline([2, 3, 1])
HUGE_CALLS = {
    "is_basis": lambda: SMALL.is_basis({HUGE}),
    "rank": lambda: rank(SMALL, {HUGE}),
    "parse_set_spec": lambda: parse_set_spec("0", HUGE),
    "decompose": lambda: decompose({0}, HUGE),
    "interval": lambda: decompose({1, 3}, 3).interval(HUGE),
    "NonCrossingPartition": lambda: NonCrossingPartition(1, ((HUGE,),)),
    "from_json": lambda: DecoratedPermutation.from_json({"n": HUGE, "pi": [1]}),
    "from_json-negative": lambda: DecoratedPermutation.from_json({"n": -HUGE, "pi": [1]}),
    "GrassmannNecklace": lambda: GrassmannNecklace.from_sets([[HUGE]]),
    "BasisCollection": lambda: BasisCollection.from_sets([[HUGE]], 3),
    "maximal_minor": lambda: maximal_minor(MATRIX, (1, HUGE)),
    "morph_sequence": lambda: morph_sequence(SMALL, decompose({1}, 3), HUGE),
    "interval_exchange": lambda: interval_exchange(SMALL, {1}, HUGE, 1),
    "natural_bound": lambda: natural_bound(SMALL, IntervalDecomposition(HUGE, ())),
    "position": lambda: position(1, HUGE, 3),
    "random_tnn_matrix": lambda: random_tnn_matrix(HUGE, 2, random.Random(0)),
    "enumerate_ncp": lambda: next(enumerate_ncp(HUGE)),
}


@pytest.mark.parametrize("name", HUGE_CALLS)
def test_a_huge_int_is_refused_by_its_length(name):
    error = EnumerationLimitError if name == "enumerate_ncp" else ValidationError
    with pytest.raises(error, match="5001-digit integer>"):
        HUGE_CALLS[name]()


def test_a_huge_ground_set_decomposes_without_its_mask():
    # the runs of a few members are read off their own bits: no n-bit mask
    # of the ground set is built, which would overflow here
    assert decompose({1, 2, 3}, HUGE).intervals == ((1, 3),)
    assert decompose({2, 5, 6}, HUGE).intervals == ((2, 2), (5, 6))
    assert decompose((), HUGE).intervals == ()


# -- CLI verbs: junk file contents and junk --set specs, flags held fixed ----

_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)
_ENTRY = st.integers(-1, 7) | _JSON_LEAF
_MATRIX_ENTRY = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "1/0", "x"]) | _JSON_LEAF
_COLOR_KEY = st.sampled_from(["1", "2", "3", "4", " 2", "x"]) | st.text(max_size=2)
_SHAPED = st.one_of(
    st.fixed_dictionaries(
        {"pi": st.lists(_ENTRY, max_size=7) | st.permutations([1, 2, 3, 4, 5])},
        optional={
            "n": _JSON_LEAF,
            "colors": st.dictionaries(
                _COLOR_KEY, st.sampled_from(["white", "black"]) | _JSON_LEAF, max_size=3
            ) | _JSON_LEAF,
        },
    ),
    st.fixed_dictionaries(
        {"sets": st.lists(st.lists(_ENTRY, max_size=4) | _JSON_LEAF, max_size=7)},
        optional={"n": _JSON_LEAF},
    ),
    st.lists(st.lists(_MATRIX_ENTRY, max_size=5), max_size=4),
)
# broken JSON text as well as well-formed JSON of the wrong shape
CONTENT = st.one_of(st.text(max_size=12), _JSON.map(json.dumps), _SHAPED.map(json.dumps))
SET_SPEC = st.text(alphabet="0123456789-, x", max_size=8) | st.text(max_size=4)

VERB_INPUTS = [
    (verb, flag)
    for verb in ("necklace", "perm", "bases", "rank", "bounds", "morph-trace", "check")
    for flag in ("--perm", "--necklace", "--matrix")
] + [("from-matrix", "--matrix")]


@pytest.fixture(scope="module")
def junk_dir():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


@pytest.mark.parametrize("verb,flag", VERB_INPUTS, ids=[f"{v}{f}" for v, f in VERB_INPUTS])
@settings(
    derandomize=True, max_examples=15, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(content=CONTENT, spec=SET_SPEC)
def test_cli_verbs_report_junk_in_one_error_line(junk_dir, verb, flag, content, spec):
    path = junk_dir / "input.json"
    path.write_text(content)
    argv = [verb, flag, str(path)]
    if verb in ("rank", "bounds", "morph-trace"):
        argv.append(f"--set={spec}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif verb == "check" and not lines:
        # check reports an invalid input as its verdict on stdout
        assert json.loads(out.getvalue())["valid"] is False
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
