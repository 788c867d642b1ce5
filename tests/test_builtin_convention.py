"""The builtin calling convention, pinned — not just its results.

Every builtin is declared once as a typed positional function;
generated code calls it directly and everything else calls the list
convention derived from it (:class:`repro.minic.stdlib.Builtin`). Two
things keep that honest:

* **Equivalence** (hypothesis): for every entry of every table — the
  host C library, the device library with its charges, the four GPU IO
  calls — ``entry.typed(ctx, *args)`` and ``entry(ctx, args)`` (``ctx``
  the execution context: the ``Interpreter`` on the host, a ``Lane`` on
  the device) agree on the return value, every touched buffer's bytes,
  freed flag and decode cache, the out-parameter cells, the context's
  streams,
  ``ExecCounters``, ``LaneCharges``, the KV store and the exception
  type + message. Arguments are generated to reach the slow branches:
  ``NULL``, freed and non-char buffers, a ``Buffer`` where a ``Ptr``
  belongs, non-ASCII and over-long tokens, offsets out of range,
  str-typed values on the ``getKV`` wire — and at the positions a
  signature declares, a typed call passes the bare ``Cell`` where the
  list call passes its ``ScalarRef``.
* **Emission**: for all 12 registry apps, every unit the compiled
  backend emits — map/combine/reduce ``main`` and the map and combine
  kernel bodies — calls each declared builtin of a fitting arity
  positionally, so a new app or builtin cannot silently fall off the
  fast path.
"""

from __future__ import annotations

import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import all_apps, get_app
from repro.config import CLUSTER1
from repro.gpu.charging import LaneCharges
from repro.gpu.device import GpuDevice
from repro.gpu.engine import (
    Lane,
    common_lane_builtins,
    kernel_program,
    make_combine_builtins,
    make_map_builtins,
    scalar_free_ctypes,
)
from repro.kvstore import GlobalKVStore, KVPair, Partitioner
from repro.minic import cast as A
from repro.minic import ctypes as T
from repro.minic import parse
from repro.minic.cache import compiled_kernel_body, compiled_program
from repro.minic.interpreter import Interpreter
from repro.minic.stdlib import (
    SIGNATURES,
    Builtin,
    host_builtins,
    signature,
)
from repro.minic.values import NULL, Buffer, Cell, Ptr, ScalarRef

# -- generated arguments ------------------------------------------------------
#
# An argument is generated as a *spec* and materialised once per side, so
# the typed and the list call each get fresh, identical objects.

_TEXT = st.text(
    alphabet=st.sampled_from("ab z\t\n09-+.e%dé漢"), max_size=12)

_CHARS = st.tuples(
    # A char buffer: text, spare bytes after its NUL, pointer offset,
    # freed or live.
    st.just("chars"), _TEXT, st.integers(0, 20), st.integers(0, 3),
    st.sampled_from([False, False, False, True]))
_REF = st.tuples(
    st.just("ref"),
    st.sampled_from(["int", "int", "size_t", "double", "char*",
                     "char*=NULL"]),
    st.integers(0, 40))
_ANY = st.one_of(
    st.tuples(st.just("int"), st.integers(-4, 70)),
    st.tuples(st.just("float"), st.floats(-50, 50, allow_nan=False)),
    st.tuples(st.just("str"), _TEXT),
    st.tuples(st.just("null")),
    _CHARS,
    st.tuples(st.just("ints"), st.lists(st.integers(-9, 99), min_size=1,
                                        max_size=4)),
    st.tuples(st.just("buffer"), _TEXT),
    _REF,
)


def _args_for(name, draw):
    """Mostly a fitting arity and plausible operands (so calls get past
    their first check and reach the stores), sometimes anything."""
    fewest, most, cells = SIGNATURES[name]
    count = draw(st.sampled_from(
        [n for n in (fewest - 1, fewest, fewest, fewest, fewest + 1,
                     fewest + 2) if 0 <= n <= most + 1]))
    return [draw(st.one_of(_REF if i in cells else _CHARS, _CHARS,
                           st.tuples(st.just("int"), st.integers(-4, 70)),
                           _ANY))
            for i in range(count)]


def _view(value):
    """``value`` with buffer identity replaced by buffer content."""
    if isinstance(value, Ptr):
        return ("ptr", _view(value.buffer), value.offset, value.stride)
    if isinstance(value, Buffer):
        cache = value._strcache
        return ("buf", str(value.elem_type), value.size, value.freed,
                bytes(value.data) if isinstance(value.data, bytearray)
                else tuple(value.data),
                None if cache is None else sorted(cache.items()))
    return (type(value).__name__, value)


class _Side:
    """One side's materialised arguments plus everything a builtin can
    touch through them, for :meth:`observed`."""

    def __init__(self, specs, cell_positions=()):
        self.buffers: list[Buffer] = []
        self.cells: list[Cell] = []
        self.args = [self._make(spec, i in cell_positions)
                     for i, spec in enumerate(specs)]

    def _chars(self, text, spare=4):
        buf = Buffer.from_string(text)
        buf.resize(buf.size + spare)
        self.buffers.append(buf)
        return buf

    def _make(self, spec, as_cell):
        kind = spec[0]
        if kind in ("int", "float", "str"):
            return spec[1]
        if kind == "null":
            return NULL
        if kind == "chars":
            _k, text, spare, offset, freed = spec
            buf = self._chars(text, spare)
            buf.freed = freed
            return Ptr(buf, min(offset, buf.size - 1))
        if kind == "ints":
            buf = Buffer(T.INT, len(spec[1]), label="ints")
            buf.data[:] = spec[1]
            self.buffers.append(buf)
            return Ptr(buf, 0)
        if kind == "buffer":
            return self._chars(spec[1])
        _k, ctype, number = spec
        if ctype == "int":
            cell = Cell(number, T.INT)
        elif ctype == "size_t":
            cell = Cell(number, T.SIZE_T)
        elif ctype == "double":
            cell = Cell(float(number), T.DOUBLE)
        elif ctype == "char*":
            cell = Cell(Ptr(self._chars("x" * number), 0), T.Pointer(T.CHAR))
        else:
            cell = Cell(NULL, T.Pointer(T.CHAR))
        self.cells.append(cell)
        return cell if as_cell else ScalarRef(cell)

    def observed(self):
        return ([_view(buf) for buf in self.buffers],
                [(str(cell.ctype), _view(cell.value))
                 for cell in self.cells])


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # leaked Python errors must match too
        return ("raise", type(exc).__name__, str(exc))


def _both_conventions(name, specs, make_world):
    """Call ``name`` positionally and by list, each in a fresh world
    from ``make_world() -> (context, table, observe)``; return both
    sides' (outcome, argument observations, world observations)."""
    sides = []
    for typed in (True, False):
        ctx, table, observe = make_world()
        entry = table[name]
        assert isinstance(entry, Builtin)
        side = _Side(specs, SIGNATURES[name][2] if typed else ())
        if typed and entry.fewest <= len(side.args) <= entry.most:
            outcome = _outcome(lambda: entry.typed(ctx, *side.args))
        else:
            # The emitter never calls a misfit arity positionally: the
            # derived callable *is* the arity check.
            outcome = _outcome(lambda: entry(ctx, side.args))
        if outcome[0] == "ok":
            outcome = ("ok", _view(outcome[1]))
        sides.append((outcome, side.observed(), observe()))
    return sides


_MAIN = parse("int main() { return 0; }")
_DEVICE = GpuDevice(CLUSTER1.gpu)


def _lane_world(table, **fields):
    """A fresh :class:`Lane` over ``table`` (zeroed charges and counters,
    ``fields`` its records/global_tid/chunk); observes the charges, the
    counters and the cursor."""
    lane = Lane(table, None, {}, {}, LaneCharges(), **fields)
    return lane, lambda: (asdict(lane.charges), asdict(lane.counters),
                          lane.index)


class TestEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_host_library(self, data):
        name = data.draw(st.sampled_from(sorted(host_builtins())))
        specs = _args_for(name, data.draw)
        stdin = data.draw(_TEXT)

        def world():
            interp = Interpreter(_MAIN, stdin=stdin)
            return interp, interp.builtins, lambda: (
                interp.stdout.getvalue(), interp.stdin.pos,
                len(interp.heap), asdict(interp.counters))

        typed, listed = _both_conventions(name, specs, world)
        assert typed == listed

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_device_library_and_its_charges(self, data):
        vec = data.draw(st.sampled_from([1, 4]))
        table = common_lane_builtins(None, vec)
        host = host_builtins()
        name = data.draw(st.sampled_from(sorted(
            name for name, entry in table.items()
            if entry is not host[name])))
        specs = _args_for(name, data.draw)

        def world():
            lane, observe = _lane_world(table)
            return lane, table, observe

        typed, listed = _both_conventions(name, specs, world)
        assert typed == listed

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_map_io_calls(self, data):
        kernel = get_app("WC").translate_map().map_kernel
        name = data.draw(st.sampled_from(["getRecord", "emitKV"]))
        specs = _args_for(name, data.draw)
        records = data.draw(st.lists(
            _TEXT.map(lambda text: text.encode("utf-8")), max_size=2))
        # Thread 1's portion is full; -1 and 99 are out of range.
        tid = data.draw(st.sampled_from([0, 1, 2, -1, 99]))

        def world():
            store = GlobalKVStore(3, 6, kernel.key_length,
                                  kernel.value_length)
            store.emit(1, "full", 1, 0)
            store.emit(1, "full", 2, 0)
            table = make_map_builtins(kernel, _DEVICE, None, store,
                                      Partitioner(3))
            lane, observe = _lane_world(table, records=list(records),
                                        global_tid=tid)
            return lane, table, lambda: (observe(), [
                (t, _view(p.key), _view(p.value), p.partition)
                for t, p in store.iter_pairs()])

        typed, listed = _both_conventions(name, specs, world)
        assert typed == listed

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_combine_io_calls(self, data):
        kernel = get_app("WC").translate_combine().combine_kernel
        name = data.draw(st.sampled_from(["getKV", "storeKV"]))
        specs = _args_for(name, data.draw)
        # The wire is text: numbers may arrive str-typed.
        datum = st.one_of(st.integers(-5, 99), st.integers(-5, 99), _TEXT,
                          st.floats(-9, 9, allow_nan=False),
                          st.sampled_from(["42", "-3", "2.5", "1e3"]))
        chunk = [KVPair(key, value, 0) for key, value in data.draw(
            st.lists(st.tuples(datum, datum), max_size=2))]

        def world():
            table = make_combine_builtins(kernel, _DEVICE, None)
            lane, observe = _lane_world(table, chunk=list(chunk))
            return lane, table, lambda: (observe(), [
                (_view(key), _view(value)) for key, value in lane.output])

        typed, listed = _both_conventions(name, specs, world)
        assert typed == listed


class TestDeviceFastBranches:
    """Both conventions run one function, so the property above cannot
    see a fast branch that disagrees with its own slow branch. These
    hold the device entries' fast branches to what they stand for: the
    charge formula of :mod:`repro.gpu.charging` over the longest char
    operand plus the host function's answer, and for ``emitKV``/
    ``storeKV`` the same effect as the slow operand shapes."""

    _WORD = st.text(alphabet=st.sampled_from("abz09é"), max_size=9)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["strcmp", "strcpy", "strcat", "strstr",
                            "strlen", "strncmp"]),
           _WORD, _WORD, st.sampled_from([1, 4]), st.booleans())
    def test_string_calls_charge_the_longest_char_operand(
            self, name, left, right, vec, warm):
        from repro.gpu.charging import bind_string_call

        table = common_lane_builtins(None, vec)
        arity = SIGNATURES[name][1]
        charged = []

        def call(entry):
            side = _Side([("chars", left, 24, 0, False),
                          ("chars", right, 24, 0, False), ("int", 3)])
            if warm:  # decode caches filled, as in a kernel's hot loop
                for buf in side.buffers:
                    buf.c_string(0)
            lane, _observe = _lane_world(table)
            result = entry.typed(lane, *side.args[:arity])
            charged.append(lane.charges)
            return _view(result), side.observed()

        assert call(table[name]) == call(host_builtins()[name])
        expected = LaneCharges()
        bind_string_call(vec)(
            expected, max([len(left), len(right)][:min(arity, 2)]))
        # The device entry charged its lane; the host's charged nothing.
        assert charged == [expected, LaneCharges()]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["emitKV", "storeKV"]), _WORD,
           st.integers(-5, 500), st.booleans())
    def test_kv_writes_agree_across_operand_shapes(self, name, key, value,
                                                   warm):
        wc = get_app("WC")
        seen = []
        for fast in (True, False):
            store = GlobalKVStore(2, 8, 30, 4)
            if name == "emitKV":
                table = make_map_builtins(
                    wc.translate_map().map_kernel, _DEVICE, None, store,
                    Partitioner(5))
            else:
                table = make_combine_builtins(
                    wc.translate_combine().combine_kernel, _DEVICE, None)
            lane, observe = _lane_world(table, global_tid=1)
            buf = Buffer.from_string(key)
            if warm:
                buf.c_string(0)
            args = (Ptr(buf, 0), value) if fast \
                else (buf, ScalarRef(Cell(value, T.INT)))
            for _ in range(2):  # the second emit finds memo and cache warm
                returned = table[name].typed(lane, *args)
            seen.append((returned, observe(), lane.output,
                         [(t, p) for t, p in store.iter_pairs()]))
        assert seen[0] == seen[1]
        if name == "emitKV":
            wanted = KVPair(key, value, Partitioner(5).partition(key))
            assert seen[0][3] == [(1, wanted)] * 2
        else:
            assert seen[0][2] == [(key, value)] * 2


def test_every_table_entry_matches_its_declared_signature():
    """``SIGNATURES`` is what the emitter trusts: every entry any table
    holds under a declared name must accept exactly that shape."""
    wc = get_app("WC")
    tables = [
        host_builtins(),
        make_map_builtins(wc.translate_map().map_kernel, _DEVICE, None,
                          None, None),
        make_combine_builtins(wc.translate_combine().combine_kernel,
                              _DEVICE, None),
    ]
    seen = set()
    for table in tables:
        for name, entry in table.items():
            assert isinstance(entry, Builtin) and entry.name == name
            seen.add(name)
            if name in ("printf", "scanf", "getline") \
                    and table is not tables[0]:
                continue  # the device's "survived translation" stubs
            assert signature(entry.typed) == SIGNATURES[name], name
    assert seen == set(SIGNATURES)


# -- emission ----------------------------------------------------------------

_DIRECT = re.compile(r"^\s*(?:t\d+ = )?d\d+\(rt\b.*$", re.M)


def _fitting_calls(*roots):
    """Call nodes under ``roots`` naming a declared builtin at an arity
    its signature accepts, and all other call nodes."""
    fitting = other = 0
    for root in roots:
        for node in root.walk():
            if isinstance(node, A.Call):
                sig = SIGNATURES.get(node.func)
                if sig is not None and sig[0] <= len(node.args) <= sig[1]:
                    fitting += 1
                else:
                    other += 1
    return fitting, other


def _assert_direct(source, fitting, other, what):
    direct = len(_DIRECT.findall(source))
    # A ``for`` step is emitted again before each ``continue``, so a
    # call node may appear more than once — never less.
    assert direct >= fitting, what
    assert source.count("_list_call(rt, ") == direct, what
    listed = source.count("(rt, [")
    if other == 0:
        assert listed == 0, what
    # Whatever still builds an argument list is a site the emitter could
    # not prove: a user function (or a wrong arity), never a builtin —
    # one line naming the list twice, ``g(rt, [...]) if g is not None
    # else _user_function(rt, k)(rt, [...])``.
    assert listed == 2 * source.count("_user_function(rt, "), what


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.short)
def test_every_declared_call_site_is_positional(app):
    programs = {"map": app.map_program(), "combine": app.combine_program(),
                "reduce": app.reduce_program()}
    for role, program in programs.items():
        if program is None:
            continue
        fitting, other = _fitting_calls(*program.functions)
        assert fitting, (app.short, role)
        _assert_direct(compiled_program(program).python_source(),
                       fitting, other, (app.short, role, "main"))
    kernels = {"map": app.translate_map().map_kernel}
    if app.has_combiner:
        kernels["combine"] = app.translate_combine().combine_kernel
    for role, kernel in kernels.items():
        suite = compiled_kernel_body(kernel_program(kernel), kernel.body,
                                     scalar_free_ctypes(kernel))
        fitting, other = _fitting_calls(kernel.body, *kernel.helpers)
        assert fitting, (app.short, role)
        _assert_direct(suite.cp.python_source(), fitting, other,
                       (app.short, role, "kernel"))


HOT = ("getRecord", "getWord", "emitKV", "getKV", "strcmp", "strcpy",
       "storeKV", "getline", "atoi")


@pytest.mark.parametrize("tag", ["WC", "II"])
def test_hot_units_build_no_argument_list(tag):
    """WC's and II's ``main`` units and WC's kernel bodies — the
    benchmark's hot code — contain no list-convention call at all, and
    pass ``&x`` to ``getline``/``getRecord``/``getKV`` as the bare Cell."""
    app = get_app(tag)
    sources = [compiled_program(app.map_program()).python_source()]
    if tag == "WC":
        for kernel in (app.translate_map().map_kernel,
                       app.translate_combine().combine_kernel):
            called = {n.func for n in kernel.body.walk()
                      if isinstance(n, A.Call)}
            assert called <= set(HOT), called
            sources.append(compiled_kernel_body(
                kernel_program(kernel), kernel.body,
                scalar_free_ctypes(kernel)).cp.python_source())
    for source in sources:
        assert "ScalarRef(" not in "".join(_DIRECT.findall(source))
    if app.has_combiner:  # its scanf keeps a ScalarRef in the else-branch
        sources.append(
            compiled_program(app.combine_program()).python_source())
    for source in sources:
        assert "(rt, [" not in source
