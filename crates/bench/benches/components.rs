//! Criterion micro-benchmarks for the substrate components: parser,
//! dependence analysis, retrieval, cache simulation, cost model and the
//! end-to-end pipeline on one kernel.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use looprag_dependence::{analyze, analyze_for, Purpose};
use looprag_eqcheck::{
    build_test_suite, differential_test, differential_test_reference, EqCheckConfig, PreparedTarget,
};
use looprag_exec::{
    run, run_with_store_reference, ArrayStore, BatchStore, CompiledProgram, ExecConfig,
};
use looprag_ir::{compile, parse_program, print_program};
use looprag_machine::{
    estimate_cost, estimate_cost_reference, CacheGeometry, CacheLevel, CostEngine, MachineConfig,
};
use looprag_polyopt::{optimize, PolyOptions};
use looprag_retrieval::{KnowledgeBase, RetrievalMode, Retriever};
use looprag_suites::find;
use looprag_synth::{build_dataset, SynthConfig};
use looprag_transform::{parallelize, scaled_clone, tile_band};

fn bench_parser(c: &mut Criterion) {
    let syrk = find("syrk").unwrap();
    c.bench_function("parse_syrk", |b| {
        b.iter(|| parse_program(&syrk.source, "syrk").unwrap())
    });
    let p = syrk.program();
    c.bench_function("print_syrk", |b| b.iter(|| print_program(&p)));
}

fn bench_dependence(c: &mut Criterion) {
    let gemm = find("gemm").unwrap().program();
    c.bench_function("dependence_gemm", |b| b.iter(|| analyze(&gemm)));
    // gemm tiled at 32 by the PLuTo-style optimizer, analyzed the way
    // cost estimation analyzes candidates: sampled across two tiles.
    let tiled = optimize(&gemm, &PolyOptions::default()).program;
    c.bench_function("dependence_tiled_gemm", |b| {
        b.iter(|| analyze_for(&tiled, Purpose::Transform))
    });
    let jacobi = find("jacobi-2d").unwrap().program();
    c.bench_function("dependence_jacobi2d", |b| b.iter(|| analyze(&jacobi)));
}

fn bench_transform(c: &mut Criterion) {
    // A perfectly nested gemm (the suite's gemm is imperfect: the scale
    // statement sits beside the k loop); small sizes keep the per-step
    // verification oracle cheap enough for a stable measurement.
    let small = compile(
        "param N = 48;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm48",
    )
    .unwrap();
    c.bench_function("tile_band_gemm48", |b| {
        b.iter(|| tile_band(&small, &[0], 3, 8).unwrap())
    });
    let opts = PolyOptions {
        tile_size: 8,
        ..Default::default()
    };
    c.bench_function("polyopt_gemm48", |b| b.iter(|| optimize(&small, &opts)));
}

fn bench_interpreter(c: &mut Criterion) {
    let p = scaled_clone(&find("gemm").unwrap().program(), 16);
    c.bench_function("interpret_gemm_n16", |b| {
        b.iter(|| run(&p, &ExecConfig::default()).unwrap())
    });
    // Compile once, then one lane of the lane engine per run, vs the
    // reference tree-walker on the same input.
    let compiled = CompiledProgram::compile(&p);
    c.bench_function("interp_compiled_gemm_n16", |b| {
        b.iter(|| {
            let mut store = BatchStore::from_inputs(&p, &[vec![]]);
            compiled
                .run_batched(&mut store, &ExecConfig::default())
                .unwrap()
        })
    });
    c.bench_function("interp_reference_gemm_n16", |b| {
        b.iter(|| {
            let mut store = ArrayStore::from_program(&p);
            run_with_store_reference(&p, &mut store, &ExecConfig::default()).unwrap()
        })
    });
    c.bench_function("compile_gemm", |b| b.iter(|| CompiledProgram::compile(&p)));
}

fn bench_differential_test(c: &mut Criterion) {
    // Perfectly nested gemm (the suite's gemm is imperfect and cannot
    // be tiled 3-deep).
    let p = compile(
        "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm64",
    )
    .unwrap();
    let t = tile_band(&p, &[0], 3, 8).unwrap();
    let cfg = EqCheckConfig::default();
    let suite = build_test_suite(&p, &cfg);
    c.bench_function("differential_test_gemm", |b| {
        b.iter(|| differential_test(&p, &t, &suite, &cfg))
    });
    c.bench_function("differential_test_gemm_reference", |b| {
        b.iter(|| differential_test_reference(&p, &t, &suite, &cfg))
    });
    // The pipeline's stage-3 shape: ground truth prepared once, then a
    // batched verdict per candidate; the parallelized candidate makes
    // the batched path sweep all three iteration orders.
    let par = parallelize(&t, &[0]).unwrap();
    let prepared = PreparedTarget::prepare(&p, &cfg);
    c.bench_function("difftest_prepared_batched_gemm", |b| {
        b.iter(|| prepared.differential_test(&par, &cfg))
    });
}

fn bench_machine(c: &mut Criterion) {
    let cfg = MachineConfig::gcc();
    let stream = find("vpv").unwrap().program();
    c.bench_function("cost_model_vpv", |b| {
        b.iter(|| estimate_cost(&stream, &cfg).unwrap())
    });
    // CostEngine vs reference on a perfectly nested gemm (deep nest,
    // body-invariant outer loops — the shape the steady-state memoizer
    // and the inlined walker are tuned for). A fresh engine per
    // iteration keeps the cost cache out of the measurement; the
    // comparison is pure walker vs walker.
    let gemm = compile(
        "param N = 48;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm48",
    )
    .unwrap();
    c.bench_function("cost_estimate_engine_gemm", |b| {
        b.iter(|| CostEngine::new().estimate(&gemm, &cfg).unwrap())
    });
    c.bench_function("cost_estimate_reference_gemm", |b| {
        b.iter(|| estimate_cost_reference(&gemm, &cfg).unwrap())
    });
    // The same gemm tiled at 8: short leaf loops under min/max bounds,
    // the shape of most search candidates (the engine's integer-exact
    // leaf path).
    let tiled_gemm = tile_band(&gemm, &[0], 3, 8).unwrap();
    c.bench_function("cost_estimate_engine_tiled_gemm", |b| {
        b.iter(|| CostEngine::new().estimate(&tiled_gemm, &cfg).unwrap())
    });
    c.bench_function("cache_sim_1m_accesses", |b| {
        b.iter_batched(
            || {
                CacheLevel::new(CacheGeometry {
                    size_bytes: 4096,
                    line_bytes: 64,
                    assoc: 4,
                })
            },
            |mut cache| {
                for i in 0..1_000_000u64 {
                    cache.access(i * 8 % 65536);
                }
                cache.hits()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_retrieval(c: &mut Criterion) {
    let dataset = build_dataset(&SynthConfig {
        count: 64,
        ..Default::default()
    });
    let programs: Vec<_> = dataset
        .examples
        .iter()
        .map(|e| (e.id, e.program()))
        .collect();
    let retriever = Retriever::build(programs.iter().map(|(i, p)| (*i, p)));
    let target = find("syrk").unwrap().program();
    c.bench_function("retrieve_top10_of_64", |b| {
        b.iter(|| retriever.query(&target, RetrievalMode::LoopAware, 10))
    });
    let kb = KnowledgeBase::build(programs.iter().map(|(i, p)| (*i, p)));
    c.bench_function("kb_query_top10_of_64", |b| {
        b.iter(|| kb.query_with_threads(&target, RetrievalMode::LoopAware, 10, 1))
    });
}

fn bench_compile_error_path(c: &mut Criterion) {
    // The feedback loop compiles many broken candidates; the error path
    // must be as cheap as the happy path.
    let bad = find("syrk").unwrap().source.replace(';', "");
    c.bench_function("compile_error_syrk", |b| {
        b.iter(|| compile(&bad, "bad").unwrap_err())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parser, bench_dependence, bench_transform, bench_interpreter,
              bench_differential_test, bench_machine, bench_retrieval,
              bench_compile_error_path
}
criterion_main!(benches);
