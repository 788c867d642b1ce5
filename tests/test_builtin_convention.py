"""The builtin calling convention, pinned — not just its results.

Every builtin is declared once as a typed positional function, and a
builtin table maps each name straight to it. The tree-walker checks a
call's arity against ``SIGNATURES`` and calls the function; generated
code does the same at the call site, once per unit run. Three things
keep that honest:

* **Equivalence** (hypothesis): for every entry of every table — the
  host C library, the device library with its charges, the four GPU IO
  calls — a tree-walked call and the compiled call site of the same
  statement (``name(p0, &p1, ...)`` over the same operands) agree on
  the return value, every touched buffer's bytes, freed flag and
  decode cache, the out-parameter cells, the context's streams,
  ``ExecCounters``, ``LaneCharges``, the KV store and the exception
  type + message. The host runs the ``Interpreter``; a device entry
  runs on a ``Lane`` under the tree engine's ``GpuInterpreter`` and
  under the compiled engine's generated body (what the vector engine
  runs for a statement with no loop). Operands are generated to reach
  the slow branches: ``NULL``, freed and non-char buffers, arrays,
  non-ASCII and over-long tokens, offsets out of range, str-typed
  values on the ``getKV`` wire, misfit arities — and at the positions
  a signature declares, the compiled site passes the bare ``Cell``
  where the tree-walker passes its ``ScalarRef``.
* **Emission**: for all 12 registry apps, every unit the compiled
  backend emits — map/combine/reduce ``main`` and the map and combine
  kernel bodies — calls each declared builtin of a fitting arity
  positionally, so a new app or builtin cannot silently fall off the
  fast path.
* **Lookup**: a wrong arity is one message on every engine, a declared
  name the table lacks is the program's own function, and a device
  table is built once per kernel, not once per launch.
"""

from __future__ import annotations

import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import all_apps, get_app
from repro.config import CLUSTER1
from repro.errors import CRuntimeError
from repro.gpu import engine as gpu_engine
from repro.gpu.charging import LaneCharges, access
from repro.gpu.device import GpuDevice
from repro.gpu.engine import (
    Lane,
    common_lane_builtins,
    kernel_program,
    make_combine_builtins,
    make_map_builtins,
    scalar_free_ctypes,
)
from repro.gpu.executor import GpuInterpreter
from repro.hadoop.local import LocalJobRunner
from repro.kvstore import GlobalKVStore, KVPair, Partitioner
from repro.minic import cache as minic_cache
from repro.minic import cast as A
from repro.minic import ctypes as T
from repro.minic import parse
from repro.minic.cache import compiled_kernel_body, compiled_program
from repro.minic.interpreter import (
    ENGINES,
    Interpreter,
    run_filter,
    use_engine,
)
from repro.minic.stdlib import HOST_BUILTINS, SIGNATURES, signature
from repro.minic.values import NULL, Buffer, Cell, Ptr, ScalarRef

# -- generated arguments ------------------------------------------------------
#
# An argument is generated as a *spec* and materialised once per side, so
# the tree-walked and the compiled call each get fresh, identical objects.

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
    their first check and reach the stores), sometimes anything; half
    the operands at a declared Cell position are ``&x`` — what the
    compiled site passes bare and the tree-walker as a ``ScalarRef``."""
    fewest, most, cells = SIGNATURES[name]
    count = draw(st.sampled_from(
        [n for n in (fewest - 1, fewest, fewest, fewest, fewest + 1,
                     fewest + 2) if 0 <= n <= most + 1]))
    plausible = st.one_of(_CHARS, st.tuples(st.just("int"),
                                            st.integers(-4, 70)), _ANY)
    return [draw(st.one_of(_REF, plausible) if i in cells
                 else st.one_of(_CHARS, plausible))
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


_CHAR_PTR = T.Pointer(T.CHAR)
_REF_CTYPES = {"int": T.INT, "size_t": T.SIZE_T, "double": T.DOUBLE,
               "char*": _CHAR_PTR, "char*=NULL": _CHAR_PTR}


class _Side:
    """One side's operands — the Cell each ``pN`` names — plus
    everything a builtin can touch through them, for :meth:`observed`."""

    def __init__(self, specs):
        self.buffers: list[Buffer] = []
        self.cells: list[Cell] = []
        self.env = {f"p{i}": self._cell(spec) for i, spec in enumerate(specs)}

    def _chars(self, text, spare=4):
        buf = Buffer.from_string(text)
        buf.resize(buf.size + spare)
        self.buffers.append(buf)
        return buf

    def _cell(self, spec):
        kind = spec[0]
        if kind == "int":
            return Cell(spec[1], T.INT)
        if kind == "float":
            return Cell(spec[1], T.DOUBLE)
        if kind == "str":
            return Cell(spec[1], _CHAR_PTR)
        if kind == "null":
            return Cell(NULL, _CHAR_PTR)
        if kind == "chars":
            _k, text, spare, offset, freed = spec
            buf = self._chars(text, spare)
            buf.freed = freed
            return Cell(Ptr(buf, min(offset, buf.size - 1)), _CHAR_PTR)
        if kind == "ints":
            buf = Buffer(T.INT, len(spec[1]), label="ints")
            buf.data[:] = spec[1]
            self.buffers.append(buf)
            return Cell(Ptr(buf, 0), T.Pointer(T.INT))
        if kind == "buffer":  # an array: evaluates to its decayed pointer
            buf = self._chars(spec[1])
            return Cell(buf, T.Array(T.CHAR, buf.size))
        _k, ctype, number = spec  # "ref": passed as &pN
        if ctype == "int":
            cell = Cell(number, T.INT)
        elif ctype == "size_t":
            cell = Cell(number, T.SIZE_T)
        elif ctype == "double":
            cell = Cell(float(number), T.DOUBLE)
        elif ctype == "char*":
            cell = Cell(Ptr(self._chars("x" * number), 0), _CHAR_PTR)
        else:
            cell = Cell(NULL, _CHAR_PTR)
        self.cells.append(cell)
        return cell

    def observed(self):
        return ([_view(buf) for buf in self.buffers],
                [(str(cell.ctype), _view(cell.value))
                 for cell in self.cells])


_STATEMENTS: dict[tuple, tuple] = {}


def _statement(name, specs):
    """``name(p0, &p1, ...);`` for ``specs`` — a ref spec passes its
    cell's address — with the program around it and the static ctypes
    of the address-taken cells (so the emitter may pass them bare).
    Built once per shape, so each shape compiles once."""
    shape = (name,) + tuple(spec[1] if spec[0] == "ref" else ""
                            for spec in specs)
    built = _STATEMENTS.get(shape)
    if built is None:
        args = ", ".join(("&" if ctype else "") + f"p{i}"
                         for i, ctype in enumerate(shape[1:]))
        program = parse(f"int main() {{ {name}({args}); return 0; }}")
        built = _STATEMENTS[shape] = (
            program, program.main.body.stmts[0],
            {f"p{i}": _REF_CTYPES[ctype]
             for i, ctype in enumerate(shape[1:]) if ctype})
    return built


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # leaked Python errors must match too
        return ("raise", type(exc).__name__, str(exc))


def _tree_and_compiled(name, specs, make_world):
    """Run ``name``'s call statement once tree-walked and once compiled,
    each in a fresh world from ``make_world(wrap) -> (context,
    observe)`` whose table went through ``wrap`` (which records what
    the entries return); return both sides' (outcome, argument
    observations, world observations)."""
    program, stmt, free_ctypes = _statement(name, specs)
    sides = []
    for tree in (True, False):
        returned = []

        def wrap(table):
            def recording(entry):
                def call(ctx, *args):
                    result = entry(ctx, *args)
                    returned.append(result)
                    return result

                return call

            return {key: recording(entry) for key, entry in table.items()}

        ctx, observe = make_world(wrap)
        side = _Side(specs)
        if tree and ctx.__class__ is Lane:
            def run():
                GpuInterpreter(program, ctx, side.env).exec_stmt(stmt)
        elif tree:
            def run():
                ctx._scopes.append(side.env)
                ctx.exec_stmt(stmt)
        else:
            suite = compiled_kernel_body(program, stmt, free_ctypes)
            frame = [None] * suite.nslots
            for free, slot in suite.frees:
                frame[slot] = side.env[free]

            def run():
                suite.execute_with_frame(ctx, frame)

        outcome = _outcome(run)
        if outcome[0] == "ok":
            (result,) = returned
            outcome = ("ok", _view(result))
        sides.append((outcome, side.observed(), observe()))
    return sides


_DEVICE = GpuDevice(CLUSTER1.gpu)


def _lane_world(table, **fields):
    """A fresh :class:`Lane` over ``table`` (zeroed charges and counters,
    ``fields`` its records/global_tid/chunk/store/partitioner); observes
    the charges, the counters and the cursor."""
    lane = Lane(table, access, {}, {}, LaneCharges(), **fields)
    return lane, lambda: (asdict(lane.charges), asdict(lane.counters),
                          lane.index)


class TestEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_host_library(self, data):
        name = data.draw(st.sampled_from(sorted(HOST_BUILTINS)))
        specs = _args_for(name, data.draw)
        stdin = data.draw(_TEXT)

        def world(wrap):
            interp = Interpreter(_statement(name, specs)[0], stdin=stdin,
                                 builtins=wrap(HOST_BUILTINS))
            return interp, lambda: (
                interp.stdout.getvalue(), interp.stdin.pos,
                len(interp.heap), asdict(interp.counters))

        tree, compiled = _tree_and_compiled(name, specs, world)
        assert tree == compiled

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_device_library_and_its_charges(self, data):
        vec = data.draw(st.sampled_from([1, 4]))
        table = common_lane_builtins(None, vec)
        name = data.draw(st.sampled_from(sorted(
            name for name, entry in table.items()
            if entry is not HOST_BUILTINS[name])))
        specs = _args_for(name, data.draw)

        def world(wrap):
            return _lane_world(wrap(table))

        tree, compiled = _tree_and_compiled(name, specs, world)
        assert tree == compiled

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_map_io_calls(self, data):
        kernel = get_app("WC").translate_map().map_kernel
        table = make_map_builtins(kernel, _DEVICE.spec, None)
        name = data.draw(st.sampled_from(["getRecord", "emitKV"]))
        specs = _args_for(name, data.draw)
        records = data.draw(st.lists(
            _TEXT.map(lambda text: text.encode("utf-8")), max_size=2))
        # Thread 1's portion is full; -1 and 99 are out of range.
        tid = data.draw(st.sampled_from([0, 1, 2, -1, 99]))

        def world(wrap):
            store = GlobalKVStore(3, 6)
            store.emit(1, "full", 1, 0)
            store.emit(1, "full", 2, 0)
            lane, observe = _lane_world(
                wrap(table), records=list(records), global_tid=tid,
                store=store, partitioner=Partitioner(3))
            return lane, lambda: (observe(), [
                (t, _view(p.key), _view(p.value), p.partition)
                for t, p in store.iter_pairs()])

        tree, compiled = _tree_and_compiled(name, specs, world)
        assert tree == compiled

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_combine_io_calls(self, data):
        kernel = get_app("WC").translate_combine().combine_kernel
        table = make_combine_builtins(kernel, _DEVICE.spec, None)
        name = data.draw(st.sampled_from(["getKV", "storeKV"]))
        specs = _args_for(name, data.draw)
        # The wire is text: numbers may arrive str-typed.
        datum = st.one_of(st.integers(-5, 99), st.integers(-5, 99), _TEXT,
                          st.floats(-9, 9, allow_nan=False),
                          st.sampled_from(["42", "-3", "2.5", "1e3"]))
        # (An exhausted chunk returns -1 untouched: every kernel test
        # ends there, so these start with a pair to read.)
        chunk = [KVPair(key, value, 0) for key, value in data.draw(
            st.lists(st.tuples(datum, datum), min_size=1, max_size=2))]

        def world(wrap):
            lane, observe = _lane_world(wrap(table), chunk=list(chunk))
            return lane, lambda: (observe(), [
                (_view(key), _view(value)) for key, value in lane.output])

        tree, compiled = _tree_and_compiled(name, specs, world)
        assert tree == compiled


class TestDeviceFastBranches:
    """Both backends run one function, so the property above cannot see
    a fast branch that disagrees with its own slow branch. These hold
    the device entries' fast branches to what they stand for: the
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
            args = [cell.value for cell in side.env.values()]
            result = entry(lane, *args[:arity])
            charged.append(lane.charges)
            return _view(result), side.observed()

        assert call(table[name]) == call(HOST_BUILTINS[name])
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
            store = GlobalKVStore(2, 8)
            if name == "emitKV":
                table = make_map_builtins(
                    wc.translate_map().map_kernel, _DEVICE.spec, None)
            else:
                table = make_combine_builtins(
                    wc.translate_combine().combine_kernel, _DEVICE.spec,
                    None)
            lane, observe = _lane_world(table, global_tid=1, store=store,
                                        partitioner=Partitioner(5))
            buf = Buffer.from_string(key)
            if warm:
                buf.c_string(0)
            args = (Ptr(buf, 0), value) if fast \
                else (buf, ScalarRef(Cell(value, T.INT)))
            for _ in range(2):  # the second emit finds memo and cache warm
                returned = table[name](lane, *args)
            seen.append((returned, observe(), lane.output,
                         [(t, p) for t, p in store.iter_pairs()]))
        assert seen[0] == seen[1]
        if name == "emitKV":
            wanted = KVPair(key, value, Partitioner(5).partition(key))
            assert seen[0][3] == [(1, wanted)] * 2
        else:
            assert seen[0][2] == [(key, value)] * 2


def test_every_table_entry_matches_its_declared_signature():
    """``SIGNATURES`` is what both backends trust: every entry any table
    holds must be declared, and accept exactly the declared shape."""
    wc = get_app("WC")
    tables = [
        HOST_BUILTINS,
        make_map_builtins(wc.translate_map().map_kernel, _DEVICE.spec, None),
        make_combine_builtins(wc.translate_combine().combine_kernel,
                              _DEVICE.spec, None),
    ]
    seen = set()
    for table in tables:
        for name, entry in table.items():
            seen.add(name)
            if name in ("printf", "scanf", "getline") \
                    and table is not tables[0]:
                continue  # the device's "survived translation" stubs
            assert signature(entry) == SIGNATURES[name], name
    assert seen == set(SIGNATURES)


# -- lookup ------------------------------------------------------------------


def _kernel_launch(call):
    """One WC-shaped map launch whose kernel body makes ``call``."""
    from .test_stdlib import TestBuiltinArity

    return TestBuiltinArity._launch("emitKV", call)


@pytest.mark.parametrize("call,count", [("strcmp(word)", 1),
                                        ("strlen(word, word)", 2),
                                        ("sqrt()", 0)])
def test_wrong_arity_is_one_message_on_every_engine(call, count):
    name = call.split("(")[0]
    fewest, most, _cells = SIGNATURES[name]
    want = f"{name} expects {fewest} argument{'' if fewest == 1 else 's'}, " \
        f"got {count}"
    seen = []
    for engine in ("tree", "compiled"):
        program = parse("int main() {\nchar word[8];\nword[0] = 0;\n"
                        f"{call};\nreturn 0;\n}}")
        with pytest.raises(CRuntimeError) as caught, use_engine(engine):
            run_filter(program, "")
        seen.append(str(caught.value))
    for engine in ENGINES:
        with use_engine(engine), pytest.raises(CRuntimeError) as caught:
            _kernel_launch(call + ";")
        seen.append(str(caught.value))
    assert seen == [want] * 5


_OWN_EMITKV = """\
int emitKV(int x) {
    return x + 1;
}
int main() {
    printf("%d %d\\n", emitKV(41), emitKV(emitKV(0)));
    return 0;
}
"""
_OWN_EMITKV2 = """\
int emitKV(int key, int value) {
    return key * value;
}
int main() {
    printf("%d\\n", emitKV(6, 7));
    return 0;
}
"""
_OWN_STRLEN = """\
int strlen(char *s) {
    return 99;
}
int main() {
    printf("%d\\n", strlen("abc"));
    return 0;
}
"""


@pytest.mark.parametrize("engine", ["tree", "compiled"])
@pytest.mark.parametrize("source,expected", [
    (_OWN_EMITKV, "42 2\n"),  # at an arity emitKV is not declared with
    (_OWN_EMITKV2, "42\n"),   # at the declared arity
    (_OWN_STRLEN, "3\n"),     # builtins shadow user functions
], ids=["emitKV-1", "emitKV-2", "strlen"])
def test_a_name_the_table_lacks_is_the_programs_own(engine, source,
                                                    expected):
    with use_engine(engine):
        out, _ = run_filter(parse(source), "")
    assert out == expected


def test_a_job_builds_each_device_table_once(monkeypatch):
    """Device tables depend on the kernel, the device spec and the
    metrics registry only: a multi-launch WC GPU job (tracing off)
    builds one map and one combine table, not one per launch."""
    # Fresh translations: kernels no earlier test has launched.
    monkeypatch.setattr(minic_cache, "_translations", {})
    builds: list[str] = []
    for maker in ("make_map_builtins", "make_combine_builtins"):
        make = getattr(gpu_engine, maker)

        def counting(kernel, *args, _make=make):
            builds.append(kernel.name)
            return _make(kernel, *args)

        monkeypatch.setattr(gpu_engine, maker, counting)
    launches = []
    runner_init = gpu_engine.LaneRunner.__init__

    def counting_init(runner, *args, **kwargs):
        runner_init(runner, *args, **kwargs)
        launches.append(runner.kernel.name)

    monkeypatch.setattr(gpu_engine.LaneRunner, "__init__", counting_init)
    app = get_app("WC")
    # Serial, so every launch runs in this process.
    LocalJobRunner(app, use_gpu=True, split_bytes=4096, workers=1).run(
        app.generate(400, seed=3))
    assert len(launches) > 2 * len(set(launches)) >= 4
    assert sorted(builds) == sorted(set(launches))


# -- emission ----------------------------------------------------------------

#: A declared builtin's call site: its positional call, then the user
#: function fallback for a table that lacks the name.
_DIRECT = re.compile(r"^\s*(?:t\d+ = )?(g\d+\(rt\b.*) if g\d+ is not None "
                     r"else _user_function\(rt, k\d+\)\(rt, \[.*$", re.M)


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
    # The only argument lists built are user-function calls: the
    # fallback of each positional site, plus one per other call.
    listed = source.count("(rt, [")
    assert listed == source.count("_user_function(rt, "), what
    if other == 0:
        assert listed == direct, what


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
    benchmark's hot code — call builtins only (every argument list in
    them is the fallback of a positional site) and pass ``&x`` to
    ``getline``/``getRecord``/``getKV`` as the bare Cell."""
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
        assert source.count("(rt, [") == len(_DIRECT.findall(source))
