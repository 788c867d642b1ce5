"""Translator tests: Algorithm 1 classification, IO rewrites, KV layout,
vectorization decisions, host plans (paper §4)."""

import pytest

from repro.compiler import VarClass, translate
from repro.compiler.host_codegen import HostStep
from repro.config import WARP_SIZE, OptimizationFlags
from repro.directives import DirectiveKind
from repro.errors import CompilerError
from repro.minic import cast as A
from repro.minic import parse


class TestMapKernelGeneration:
    def test_listing1_translates(self, wc_map_source):
        result = translate(parse(wc_map_source))
        k = result.map_kernel
        assert k is not None and k.kind is DirectiveKind.MAPPER
        assert result.combine_kernel is None

    def test_io_calls_rewritten(self, wc_map_source):
        k = translate(parse(wc_map_source)).map_kernel
        calls = {n.func for n in k.body.walk() if isinstance(n, A.Call)}
        assert "getRecord" in calls and "emitKV" in calls
        assert "getline" not in calls and "printf" not in calls

    def test_variables_renamed_with_gpu_prefix(self, wc_map_source):
        k = translate(parse(wc_map_source)).map_kernel
        idents = {n.name for n in k.body.walk() if isinstance(n, A.Ident)}
        assert "gpu_word" in idents and "gpu_one" in idents
        assert "word" not in idents

    def test_all_listing1_variables_private(self, wc_map_source):
        # Paper Listing 3: every wordcount map variable is thread-private.
        k = translate(parse(wc_map_source)).map_kernel
        assert all(v.klass is VarClass.PRIVATE for v in k.variables.values())

    def test_key_value_layout(self, wc_map_source):
        k = translate(parse(wc_map_source)).map_kernel
        assert k.key_length == 30 and k.key_is_array
        assert k.value_length == 4 and not k.value_is_array

    def test_kvpairs_clause_captured(self, wc_map_source):
        k = translate(parse(wc_map_source)).map_kernel
        assert k.kvpairs_per_record == 20

    def test_mapper_without_getline_rejected(self):
        src = """
int main() {
    int k, v;
    #pragma mapreduce mapper key(k) value(v)
    while (scanf("%d", &k) != -1) { v = 1; printf("%d\\t%d\\n", k, v); }
    return 0;
}
"""
        with pytest.raises(CompilerError, match="record input"):
            translate(parse(src))

    def test_no_directives_rejected(self):
        with pytest.raises(CompilerError, match="no mapreduce"):
            translate(parse("int main() { return 0; }"))

    def test_cuda_source_rendering(self, wc_map_source):
        result = translate(parse(wc_map_source))
        assert "__global__ void gpu_mapper" in result.cuda_source
        assert "recordIndex" in result.cuda_source  # shared-memory counter


class TestCombineKernelGeneration:
    def test_listing2_translates(self, wc_combine_source):
        result = translate(parse(wc_combine_source))
        k = result.combine_kernel
        assert k is not None and k.kind is DirectiveKind.COMBINER

    def test_kv_io_rewritten(self, wc_combine_source):
        k = translate(parse(wc_combine_source)).combine_kernel
        calls = {n.func for n in k.body.walk() if isinstance(n, A.Call)}
        assert "getKV" in calls and "storeKV" in calls
        assert "scanf" not in calls and "printf" not in calls

    def test_private_arrays_moved_to_shared_memory(self, wc_combine_source):
        # Paper §4.2: gpu_prevWord / gpu_word live in per-warp shared memory.
        k = translate(parse(wc_combine_source)).combine_kernel
        assert k.variables["prevWord"].klass is VarClass.SHARED_ARRAY
        assert k.variables["word"].klass is VarClass.SHARED_ARRAY

    def test_firstprivate_scalar(self, wc_combine_source):
        k = translate(parse(wc_combine_source)).combine_kernel
        assert k.variables["count"].klass is VarClass.FIRSTPRIVATE_SCALAR

    def test_shared_mem_accounting(self, wc_combine_source):
        k = translate(parse(wc_combine_source)).combine_kernel
        warps = k.launch.threads // WARP_SIZE
        # two 30-byte char arrays per warp
        assert k.shared_mem_bytes == 2 * 30 * warps

    def test_combiner_without_scanf_rejected(self):
        src = """
int main() {
    int k, v, pk, pv;
    pk = 0; pv = 0;
    #pragma mapreduce combiner key(pk) value(pv) keyin(k) valuein(v) \\
        firstprivate(pk, pv)
    {
        printf("%d\\t%d\\n", pk, pv);
    }
    return 0;
}
"""
        with pytest.raises(CompilerError, match="KV input"):
            translate(parse(src))


class TestVariableClassification:
    SRC_TEXTURE = """
int main() {
    char tok[8], *line;
    size_t n; n = 64;
    double cent[16];
    int read, c, k;
    double v;
    line = (char*) malloc(64);
    for (c = 0; c < 16; c++) cent[c] = c;
    #pragma mapreduce mapper key(k) value(v) texture(cent)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        k = 0; v = cent[0];
        printf("%d\\t%f\\n", k, v);
    }
    return 0;
}
"""

    def test_texture_clause_honoured(self):
        k = translate(parse(self.SRC_TEXTURE)).map_kernel
        assert k.variables["cent"].klass is VarClass.TEXTURE_ARRAY

    def test_texture_falls_back_to_global_when_disabled(self):
        opt = OptimizationFlags.all_on().but(use_texture=False)
        k = translate(parse(self.SRC_TEXTURE), opt=opt).map_kernel
        assert k.variables["cent"].klass is VarClass.GLOBAL_RO_ARRAY

    def test_sharedro_written_is_error(self):
        src = """
int main() {
    char buf[8], *line;
    size_t n; n = 64;
    int read, k, v;
    line = (char*) malloc(64);
    #pragma mapreduce mapper key(k) value(v) sharedRO(buf)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        buf[0] = 1; k = 0; v = 0;
        printf("%d\\t%d\\n", k, v);
    }
    return 0;
}
"""
        with pytest.raises(CompilerError, match="written inside"):
            translate(parse(src))

    def test_directive_names_undeclared_variable(self):
        src = """
int main() {
    char *line; size_t n; int read, k, v;
    n = 64; line = (char*) malloc(64);
    #pragma mapreduce mapper key(k) value(v) sharedRO(ghost)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        k = 0; v = 0; printf("%d\\t%d\\n", k, v);
    }
    return 0;
}
"""
        with pytest.raises(CompilerError, match="ghost"):
            translate(parse(src))


class TestVectorization:
    def test_array_key_gets_char4(self, wc_map_source):
        k = translate(parse(wc_map_source)).map_kernel
        assert k.vector_width == 4

    def test_scalar_kv_stays_scalar(self):
        src = """
int main() {
    char *line; size_t n; int read, k, v;
    n = 64; line = (char*) malloc(64);
    #pragma mapreduce mapper key(k) value(v)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        k = 1; v = 1; printf("%d\\t%d\\n", k, v);
    }
    return 0;
}
"""
        k = translate(parse(src)).map_kernel
        assert k.vector_width == 1

    def test_vectorization_disabled_by_flag(self, wc_map_source):
        opt = OptimizationFlags.all_on().but(vectorize_map=False)
        k = translate(parse(wc_map_source), opt=opt).map_kernel
        assert k.vector_width == 1


class TestHostPlan:
    def test_map_program_plan_has_no_combine_step(self, wc_map_source):
        result = translate(parse(wc_map_source))
        steps = result.host_plan.steps
        assert steps[0] is HostStep.COPY_INPUT
        assert steps[-1] is HostStep.FREE
        assert HostStep.SORT in steps
        assert HostStep.COMBINE_KERNEL not in steps

    def test_combiner_program_plan_launches_the_combine_kernel(
            self, wc_combine_source):
        steps = translate(parse(wc_combine_source)).host_plan.steps
        assert steps.index(HostStep.SORT) \
            < steps.index(HostStep.COMBINE_KERNEL) \
            < steps.index(HostStep.WRITE_OUTPUT)

    def test_launch_clauses_override_geometry(self):
        src = """
int main() {
    char *line; size_t n; int read, k, v;
    n = 64; line = (char*) malloc(64);
    #pragma mapreduce mapper key(k) value(v) blocks(30) threads(64)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        k = 1; v = 1; printf("%d\\t%d\\n", k, v);
    }
    return 0;
}
"""
        k = translate(parse(src)).map_kernel
        assert k.launch.blocks == 30 and k.launch.threads == 64
