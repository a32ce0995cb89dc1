"""Bad input at either front door raises a `ReproError` and admits nothing.

Both services share one admission step, so fuzzing params, alphabets,
priorities, timeouts and empty, huge or ragged streams must never leak a
`TypeError`/`ValueError`/`KeyError`, and a rejected call must leave the
submitted counter where it was.  Valid draws are admitted and must
drain to one result per stream.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ReproError
from repro.runtime import AsyncMatcherService, WorkerPool
from repro.service import MatcherService, Priority, uniform_pool
from repro.workloads import WorkloadError, get_workload, list_workloads
from repro.workloads.registry import to_list

#: symbols -> character bits; every alphabet holds A and B.
ALPHABETS = {"AB": 1, "ABC": 2, "ABCD": 2}
NUMERIC = {name for name in list_workloads() if get_workload(name).numeric}

values = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(-3, 3),
    st.integers(10**400, 10**401),  # overflows float()
    st.sampled_from(list("ABCDGTXZ") + ["", "AB", "1.5", "x"]),
    st.none(),
    st.lists(st.floats(-5, 5), max_size=2),  # ragged
)
bad_streams = st.one_of(
    st.text(alphabet="ABCDGTX", max_size=60),
    st.lists(values, max_size=30),
    st.none(),
    st.integers(),
)
bad_params = st.one_of(
    st.text(alphabet="ABCDGTX", max_size=5),
    st.lists(values, max_size=4),
    st.none(),
    st.integers(),
)


@st.composite
def requests(draw):
    """One ``submit_many`` call.  A third of the draws are well formed
    (huge and empty streams included), so the admitted path runs too;
    the rest mix well-formed and malformed fields."""
    workload = draw(st.sampled_from(list_workloads() + ["sorting"]))
    if workload in NUMERIC:
        good_params = st.lists(st.floats(-4, 4), min_size=1, max_size=4)
        good = st.lists(st.floats(-100, 100), max_size=40)
        huge = [float(i % 7) for i in range(20_000)]
    else:
        good_params = st.text(alphabet="ABX", min_size=1, max_size=5)
        good = st.text(alphabet="AB", max_size=60)
        huge = "AB" * 10_000
    good = st.one_of(good, good, good, st.just(huge))
    good_req = {
        "params": good_params,
        "texts": st.lists(good, min_size=1, max_size=4),
        "priority": st.sampled_from(list(Priority)),
        "timeout": st.one_of(st.none(), st.floats(1.0, 1e9)),
    }
    if workload != "sorting" and draw(st.integers(0, 2)) == 0:
        fields = good_req
    else:
        stream = st.one_of(good, bad_streams)
        fields = {
            "params": st.one_of(good_params, bad_params),
            "texts": st.one_of(
                st.lists(stream, max_size=4),
                st.text(alphabet="AB", max_size=6),  # a str, not a list
                st.none(), st.integers(),
            ),
            "priority": st.sampled_from(
                [*Priority, 0, 1, 7, -1, None, "BATCH"]
            ),
            "timeout": st.one_of(
                good_req["timeout"],
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-2, 10**400), st.text(max_size=2),
            ),
        }
    req = {k: draw(v) for k, v in fields.items()}
    req["workload"] = workload
    return req


def _kwargs(req):
    return {k: req[k] for k in ("workload", "priority", "timeout")}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(ALPHABETS)), requests())
def test_farm_boundary_raises_only_repro_errors(symbols, req):
    alphabet = Alphabet(symbols)
    svc = MatcherService(
        uniform_pool(1, ChipSpec(8, ALPHABETS[symbols]), alphabet)
    )
    try:
        ids = svc.submit_many(req["params"], req["texts"], **_kwargs(req))
    except ReproError:
        assert svc.telemetry.submitted == 0
        assert svc.drain() == []
        return
    assert len(svc.drain()) == len(ids) == svc.telemetry.submitted


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(1, Alphabet("ABCD")).start()
    yield pool
    pool.shutdown()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(req=requests())
def test_runtime_boundary_raises_only_repro_errors(shared_pool, req):
    async def go():
        svc = AsyncMatcherService(pool=shared_pool)
        await svc.start()
        try:
            ids = await svc.submit_many(
                req["params"], req["texts"], **_kwargs(req)
            )
        except ReproError:
            assert svc.submitted == 0
            assert await svc.drain() == []
            return
        assert len(await svc.drain()) == len(ids) == svc.submitted

    asyncio.run(go())


# -- the typed admission boundary -------------------------------------------

#: Alphabets the encoder meets: latin-1 ones (its byte table), one with
#: symbols outside latin-1 and one too wide for a byte (its
#: per-character path).
TYPED_ALPHABETS = [
    Alphabet("ABCD"), Alphabet("AB"), Alphabet("AΩ€B"),
    Alphabet("ABCD" + "".join(chr(0x100 + i) for i in range(296))),
]
STRAYS = ["Z", "", "AB", "é", "Ā", "Ω", "€"]

char_items = st.one_of(
    st.sampled_from(list("ABCD") + STRAYS),
    st.integers(-2, 300),
    st.none(),
    st.just(True),
    st.lists(st.just("A"), max_size=1),  # unhashable
)
numeric_items = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.just(10**400),  # overflows float()
    st.booleans(),
    st.sampled_from(["1.5", " -2 ", "nan", "abc", "", b"2.5"]),
    st.none(),
    st.lists(st.floats(-5, 5), max_size=1),
)


def _list_validate(spec, stream, alphabet):
    """``validate_stream`` as it was when a stream was a Python list:
    the reference the typed boundary must accept and reject like."""
    try:
        if spec.numeric:
            return [float(v) for v in stream]
        if alphabet is None:
            raise WorkloadError(f"workload {spec.name!r} needs an alphabet")
        return alphabet.validate_text(stream)
    except (TypeError, ValueError, OverflowError) as exc:
        raise WorkloadError(
            f"bad {spec.name!r} stream: {type(exc).__name__}: {exc}"
        ) from None


def _outcome(fn):
    try:
        values = to_list(fn())
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in values]


@st.composite
def typed_inputs(draw):
    """(workload, stream factory, alphabet): the items come as a str, a
    list, a tuple or a one-shot iterator, built fresh per call."""
    spec = get_workload(draw(st.sampled_from(["match", "fir"])))
    if spec.numeric:
        items = draw(st.lists(numeric_items, max_size=12))
    else:
        pool = st.sampled_from(list("ABCD") + STRAYS)
        items = draw(st.one_of(st.lists(pool, max_size=12),
                               st.lists(char_items, max_size=12)))
    kinds = ["list", "tuple", "iter"]
    if all(isinstance(v, str) for v in items):
        kinds.append("str")
    kind = draw(st.sampled_from(kinds))
    make = {"list": list, "tuple": tuple, "iter": iter,
            "str": "".join}[kind]
    alphabet = draw(st.sampled_from(TYPED_ALPHABETS + [None]))
    return spec, (lambda: make(items)), alphabet


@settings(max_examples=400, deadline=None)
@given(typed_inputs())
def test_typed_boundary_accepts_and_rejects_like_the_list_boundary(case):
    """``validate_stream`` returns a typed array now, but it accepts and
    rejects exactly what the list-valued boundary did, with the same
    exception type and message; accepted streams decode to the same
    characters or the same float values."""
    spec, stream, alphabet = case
    assert _outcome(lambda: spec.validate_stream(stream(), alphabet)) == \
        _outcome(lambda: _list_validate(spec, stream(), alphabet))


def test_typed_boundary_returns_codes_and_samples():
    ab = Alphabet("ABCD")
    codes = get_workload("match").validate_stream("DCBA", ab)
    assert codes.codes.tolist() == [3, 2, 1, 0] and "".join(codes) == "DCBA"
    samples = get_workload("fir").validate_stream([1, "1.5", True], None)
    assert samples.dtype == np.float64
    assert samples.tolist() == [1.0, 1.5, 1.0]
