//! One function per table/figure of the paper's evaluation section.
//!
//! Each function prints a text rendition of the artifact to stdout.
//! Paper-reported values for PCAOT and LLM-Vectorizer are quoted
//! constants, exactly as the paper does (neither system released code).

use crate::harness::{fmt_pass, fmt_speedup, Harness};
use looprag_baselines::CompilerBaseline;
use looprag_core::{average_speedup, pass_at_k, percent_faster};
use looprag_polyopt::{optimize, PolyOptions};
use looprag_suites::Suite;
use looprag_synth::{cluster_histogram, spread, Dataset, PROPERTY_NAMES};

const SUITES: [Suite; 3] = [Suite::PolyBench, Suite::Tsvc, Suite::Lore];

fn speedups(results: &[crate::KernelResult]) -> Vec<f64> {
    results.iter().map(|r| r.speedup).collect()
}

fn passes(results: &[crate::KernelResult]) -> Vec<bool> {
    results.iter().map(|r| r.passed).collect()
}

/// The PLuTo baseline's per-suite `pass@k speedup` row cells.
fn pluto_row(h: &Harness) -> String {
    let mut cells = Vec::new();
    for s in SUITES {
        let r = h.pluto(s, "gcc");
        cells.push(format!(
            "{:>7} {:>8}",
            fmt_pass(pass_at_k(&passes(&r))),
            fmt_speedup(average_speedup(&speedups(&r)))
        ));
    }
    cells.join(" |")
}

fn row(h: &Harness, arm: &crate::harness::ArmKey) -> String {
    let mut cells = Vec::new();
    for s in SUITES {
        let r = h.pipeline(arm, s);
        cells.push(format!(
            "{:>7} {:>8}",
            fmt_pass(pass_at_k(&passes(&r))),
            fmt_speedup(average_speedup(&speedups(&r)))
        ));
    }
    cells.join(" |")
}

/// Figure 1: base GPT-4 vs PLuTo on PolyBench and TSVC — percentage of
/// kernels faster (↑), slower (↓) and non-equivalent (≠).
pub fn fig1(h: &Harness) {
    println!("\n=== Figure 1: GPT-4 (base prompting) vs PLuTo ===");
    for s in [Suite::PolyBench, Suite::Tsvc] {
        let gpt = h.pipeline(&h.base_llm_arm("gpt-4", "gcc"), s);
        let pluto = h.pluto(s, "gcc");
        let mut up = 0;
        let mut down = 0;
        let mut neq = 0;
        for (g, p) in gpt.iter().zip(&pluto) {
            if !g.passed {
                neq += 1;
            } else if g.speedup > p.speedup {
                up += 1;
            } else {
                down += 1;
            }
        }
        let n = gpt.len().max(1) as f64;
        println!(
            "{s:<10}  up {:.1}%  down {:.1}%  non-equivalent {:.1}%",
            100.0 * up as f64 / n,
            100.0 * down as f64 / n,
            100.0 * neq as f64 / n
        );
    }
}

/// Table 1: pass@k and speedups vs baseline compilers.
pub fn table1(h: &Harness) {
    println!("\n=== Table 1: LOOPRAG vs baseline compilers ===");
    println!(
        "{:<14}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!(
        "{:<14}| pass@k  speedup | pass@k  speedup | pass@k  speedup",
        ""
    );
    println!("{:-<68}", "");
    println!(
        "{:<14}|{}",
        "LD-GCC",
        row(h, &h.looprag_arm("deepseek", "gcc"))
    );
    println!(
        "{:<14}|{}",
        "LG-GCC",
        row(h, &h.looprag_arm("gpt-4", "gcc"))
    );
    // Graphite: excluded from TSVC (dummy-function SCoP detection).
    {
        let mut cells = Vec::new();
        for s in SUITES {
            if s == Suite::Tsvc {
                cells.push(format!("{:>7} {:>8}", "-", "-"));
                continue;
            }
            let r = h.compiler(s, CompilerBaseline::Graphite, "gcc");
            cells.push(format!(
                "{:>7} {:>8}",
                fmt_pass(pass_at_k(&passes(&r))),
                fmt_speedup(average_speedup(&speedups(&r)))
            ));
        }
        println!("{:<14}|{}", "Graphite", cells.join(" |"));
    }
    println!(
        "{:<14}|{}",
        "LD-Clang",
        row(h, &h.looprag_arm("deepseek", "clang"))
    );
    println!(
        "{:<14}|{}",
        "LG-Clang",
        row(h, &h.looprag_arm("gpt-4", "clang"))
    );
    {
        let mut cells = Vec::new();
        for s in SUITES {
            let r = h.compiler(s, CompilerBaseline::Polly, "clang");
            cells.push(format!(
                "{:>7} {:>8}",
                fmt_pass(pass_at_k(&passes(&r))),
                fmt_speedup(average_speedup(&speedups(&r)))
            ));
        }
        println!("{:<14}|{}", "Polly", cells.join(" |"));
    }
    {
        let mut cells = Vec::new();
        for s in SUITES {
            if s == Suite::Tsvc {
                cells.push(format!("{:>7} {:>8}", "-", "-"));
                continue;
            }
            let r = h.compiler(s, CompilerBaseline::Perspective, "clang");
            cells.push(format!(
                "{:>7} {:>8}",
                fmt_pass(pass_at_k(&passes(&r))),
                fmt_speedup(average_speedup(&speedups(&r)))
            ));
        }
        println!("{:<14}|{}", "Perspective", cells.join(" |"));
    }
    println!(
        "{:<14}|{}",
        "LD-ICX",
        row(h, &h.looprag_arm("deepseek", "icx"))
    );
    println!(
        "{:<14}|{}",
        "LG-ICX",
        row(h, &h.looprag_arm("gpt-4", "icx"))
    );
}

/// Figure 6: percentage of kernels where LOOPRAG beats each compiler.
pub fn fig6(h: &Harness) {
    println!("\n=== Figure 6: % faster codes vs compilers (LD arm) ===");
    for s in SUITES {
        let ours_gcc = speedups(&h.pipeline(&h.looprag_arm("deepseek", "gcc"), s));
        let ours_clang = speedups(&h.pipeline(&h.looprag_arm("deepseek", "clang"), s));
        let ours_icx = speedups(&h.pipeline(&h.looprag_arm("deepseek", "icx"), s));
        let mut line = format!("{s:<10}");
        if s != Suite::Tsvc {
            let g = speedups(&h.compiler(s, CompilerBaseline::Graphite, "gcc"));
            line += &format!("  vs Graphite {:5.1}%", percent_faster(&ours_gcc, &g));
        } else {
            line += "  vs Graphite     -";
        }
        let p = speedups(&h.compiler(s, CompilerBaseline::Polly, "clang"));
        line += &format!("  vs Polly {:5.1}%", percent_faster(&ours_clang, &p));
        if s != Suite::Tsvc {
            let pe = speedups(&h.compiler(s, CompilerBaseline::Perspective, "clang"));
            line += &format!("  vs Perspective {:5.1}%", percent_faster(&ours_clang, &pe));
        } else {
            line += "  vs Perspective     -";
        }
        // ICX: the baseline is the original program (speedup 1.0).
        let ones = vec![1.0; ours_icx.len()];
        line += &format!("  vs ICX {:5.1}%", percent_faster(&ours_icx, &ones));
        println!("{line}");
    }
}

/// Table 2: LOOPRAG vs base LLMs and published LLM-based systems.
pub fn table2(h: &Harness) {
    println!("\n=== Table 2: LOOPRAG vs LLM-based methods ===");
    println!(
        "{:<22}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!("{:-<76}", "");
    println!(
        "{:<22}|{}",
        "LOOPRAG DeepSeek",
        row(h, &h.looprag_arm("deepseek", "gcc"))
    );
    println!(
        "{:<22}|{}",
        "LOOPRAG GPT-4",
        row(h, &h.looprag_arm("gpt-4", "gcc"))
    );
    println!(
        "{:<22}|{}",
        "Base DeepSeek",
        row(h, &h.base_llm_arm("deepseek", "gcc"))
    );
    println!(
        "{:<22}|{}",
        "Base GPT-4",
        row(h, &h.base_llm_arm("gpt-4", "gcc"))
    );
    // Paper-reported constants (no released software):
    println!(
        "{:<22}|{:>7} {:>8} |{:>7} {:>8} |{:>7} {:>8}",
        "PCAOT GPT-4 (paper)", "65.35", "1.80", "-", "-", "-", "-"
    );
    println!(
        "{:<22}|{:>7} {:>8} |{:>7} {:>8} |{:>7} {:>8}",
        "LLM-Vect. (paper)", "-", "-", "68.00", "5.25", "-", "-"
    );
}

/// Figure 7: % faster codes vs base LLMs.
pub fn fig7(h: &Harness) {
    println!("\n=== Figure 7: % faster codes vs base LLMs ===");
    for s in SUITES {
        let ld = speedups(&h.pipeline(&h.looprag_arm("deepseek", "gcc"), s));
        let lg = speedups(&h.pipeline(&h.looprag_arm("gpt-4", "gcc"), s));
        let bd = speedups(&h.pipeline(&h.base_llm_arm("deepseek", "gcc"), s));
        let bg = speedups(&h.pipeline(&h.base_llm_arm("gpt-4", "gcc"), s));
        println!(
            "{s:<10}  LD vs base-DeepSeek {:5.1}%   LG vs base-GPT-4 {:5.1}%",
            percent_faster(&ld, &bd),
            percent_faster(&lg, &bg)
        );
    }
}

/// Table 3 and Figure 8: LOOPRAG vs PLuTo.
pub fn table3_fig8(h: &Harness) {
    println!("\n=== Table 3: LOOPRAG vs PLuTo ===");
    println!(
        "{:<22}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!("{:-<76}", "");
    println!(
        "{:<22}|{}",
        "LOOPRAG DeepSeek",
        row(h, &h.looprag_arm("deepseek", "gcc"))
    );
    println!(
        "{:<22}|{}",
        "LOOPRAG GPT-4",
        row(h, &h.looprag_arm("gpt-4", "gcc"))
    );
    println!("{:<22}|{}", "PLuTo", pluto_row(h));

    println!("\n=== Figure 8: % faster codes vs PLuTo ===");
    for s in SUITES {
        let ld = speedups(&h.pipeline(&h.looprag_arm("deepseek", "gcc"), s));
        let pl = speedups(&h.pluto(s, "gcc"));
        println!("{s:<10}  LD vs PLuTo {:5.1}%", percent_faster(&ld, &pl));
    }
}

/// The search-arm table (`experiments -- --arm search`): the
/// legality-guided beam search as a campaign arm of its own, next to
/// PLuTo on the same machine model. Search candidates go through the
/// same differential testing as every pipeline candidate, so `pass`
/// means verified, not just legality-believed.
pub fn search_arm(h: &Harness, beam: usize, depth: usize) {
    println!("\n=== Search arm: legality-guided beam search (beam {beam}, depth {depth}) ===");
    println!(
        "{:<22}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!("{:-<76}", "");
    println!(
        "{:<22}|{}",
        "Search (K=0)",
        row(h, &h.search_arm("gcc", beam, depth))
    );
    println!("{:<22}|{}", "PLuTo", pluto_row(h));
}

/// Serve arm: the persistent optimization service over the strided
/// suite kernels — cold phase (every kernel once through the pipeline),
/// then `requests` Zipf-distributed repeats served from the
/// verified-winner memo, then snapshot → restore → replay. The serve
/// determinism pins are hard-asserted inside `run_serve_campaign`.
pub fn serve_arm(h: &Harness, requests: usize) {
    println!("\n=== Serve arm: optimization-as-a-service ({requests} Zipf requests) ===");
    let kernels: Vec<_> = SUITES.iter().flat_map(|s| h.kernels(*s)).collect();
    let mut cfg = looprag_core::LoopRagConfig::new(looprag_llm::LlmProfile::deepseek());
    cfg.seed = h.opts().seed;
    // Request-level fan-out is the service's parallelism; candidate
    // stages stay sequential inside each worker.
    cfg.threads = 1;
    let report = crate::serve::run_serve_campaign(
        cfg,
        h.dataset.clone(),
        &kernels,
        requests,
        h.opts().seed ^ 0x5E12,
        h.opts().threads,
    );
    println!("{:<28} {:>10}", "kernels (cold misses)", report.kernels);
    println!(
        "{:<28} {:>10}",
        "warm requests (all hits)", report.warm_requests
    );
    println!(
        "{:<28} {:>9.1}%",
        "overall hit rate",
        100.0 * report.hit_rate
    );
    println!(
        "{:<28} {:>10.1} ms  ({:.1} ms/request)",
        "cold phase",
        report.cold_ms,
        report.cold_ns_per_request / 1e6
    );
    println!(
        "{:<28} {:>10.3} ms  ({:.1} us/request)",
        "warm phase",
        report.warm_ms,
        report.warm_ns_per_request / 1e3
    );
    println!(
        "{:<28} {:>9.0}x",
        "warm hit over cold miss", report.warm_speedup
    );
    println!(
        "{:<28} {:>10}",
        "cold LLM stream advances", report.cold_llm_calls
    );
    println!(
        "{:<28} {:>10}",
        "warm LLM stream advances", report.warm_stream_delta
    );
    println!(
        "{:<28} {:>10}",
        "warm search expansions", report.warm_expansion_delta
    );
    println!(
        "{:<28} {:>10} bytes  (restore {:.1} ms, replay byte-identical)",
        "snapshot", report.snapshot_bytes, report.restore_ms
    );
}

fn dataset_stats(d: &Dataset) -> Vec<looprag_synth::LoopPropertyStats> {
    d.examples.iter().map(|e| e.stats.clone()).collect()
}

/// Figure 9: distribution of loop properties across clusters.
pub fn fig9(h: &Harness) {
    println!("\n=== Figure 9: loop-property distribution (cluster %) ===");
    let pd = cluster_histogram(&dataset_stats(&h.dataset));
    let cg = cluster_histogram(&dataset_stats(&h.cola_dataset));
    println!(
        "{:<12} {:^31} | {:^31}",
        "property", "LOOPRAG  A     B     C     D", "COLA-Gen A     B     C     D"
    );
    for (i, name) in PROPERTY_NAMES.iter().enumerate() {
        let fmt_hist = |hist: &[usize; 4]| {
            let total: usize = hist.iter().sum::<usize>().max(1);
            hist.iter()
                .map(|c| format!("{:5.1}", 100.0 * *c as f64 / total as f64))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{name:<12} {:>6} {} | {:>6} {}",
            format!("s={:.2}", spread(&pd[i])),
            fmt_hist(&pd[i]),
            format!("s={:.2}", spread(&cg[i])),
            fmt_hist(&cg[i]),
        );
    }
    let avg = |h: &[[usize; 4]; 8]| h.iter().map(spread).sum::<f64>() / 8.0;
    println!(
        "mean spread: LOOPRAG {:.3} vs COLA-Gen {:.3} (1.0 = uniform over clusters)",
        avg(&pd),
        avg(&cg)
    );
}

/// Table 4: transformation families triggered in the optimized versions.
pub fn table4(h: &Harness) {
    println!("\n=== Table 4: transformation families triggered ===");
    let families = |d: &Dataset| -> Vec<String> {
        let mut set: Vec<String> = d
            .examples
            .iter()
            .flat_map(|e| e.families.iter().cloned())
            .collect();
        set.sort();
        set.dedup();
        set
    };
    let pd = families(&h.dataset);
    let cg = families(&h.cola_dataset);
    let all = [
        "Tiling",
        "Interchange",
        "Skewing",
        "Fusion",
        "Distribution",
        "Shifting",
        "Parallelization",
    ];
    println!("{:<14} {:^8} {:^8}", "family", "LOOPRAG", "COLA-Gen");
    for f in all {
        println!(
            "{f:<14} {:^8} {:^8}",
            if pd.iter().any(|x| x == f) {
                "yes"
            } else {
                "no"
            },
            if cg.iter().any(|x| x == f) {
                "yes"
            } else {
                "no"
            }
        );
    }
}

/// Table 5 and Figure 10: pipeline quality with COLA-Gen demonstrations.
pub fn table5_fig10(h: &Harness) {
    println!("\n=== Table 5: LOOPRAG vs COLA-Gen demonstrations ===");
    println!(
        "{:<22}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!("{:-<76}", "");
    for (label, dataset) in [("LOOPRAG demos", "pd"), ("COLA-Gen demos", "cola")] {
        for profile in ["deepseek", "gpt-4"] {
            let arm = crate::harness::ArmKey {
                profile: profile.into(),
                machine: "gcc".into(),
                retrieval: "loop-aware".into(),
                dataset: dataset.into(),
                single_shot: false,
                search: None,
            };
            println!("{:<22}|{}", format!("{label} {profile}"), row(h, &arm));
        }
    }
    println!("\n=== Figure 10: % faster codes vs COLA-Gen demos ===");
    for s in SUITES {
        let pd_arm = h.looprag_arm("deepseek", "gcc");
        let cola_arm = crate::harness::ArmKey {
            dataset: "cola".into(),
            ..pd_arm.clone()
        };
        let a = speedups(&h.pipeline(&pd_arm, s));
        let b = speedups(&h.pipeline(&cola_arm, s));
        println!(
            "{s:<10}  LD(pd) vs LD(cola) {:5.1}%",
            percent_faster(&a, &b)
        );
    }
}

/// Table 6 and Figure 11: retrieval ablation.
pub fn table6_fig11(h: &Harness) {
    println!("\n=== Table 6: retrieval ablation ===");
    println!(
        "{:<22}| {:^16} | {:^16} | {:^16}",
        "", "PolyBench", "TSVC", "LORE"
    );
    println!("{:-<76}", "");
    for (label, mode) in [
        ("Loop-aware", "loop-aware"),
        ("BM25", "bm25"),
        ("Weighted Score", "weighted"),
    ] {
        for profile in ["deepseek", "gpt-4"] {
            let arm = crate::harness::ArmKey {
                profile: profile.into(),
                machine: "gcc".into(),
                retrieval: mode.into(),
                dataset: "pd".into(),
                single_shot: false,
                search: None,
            };
            println!("{:<22}|{}", format!("{label} {profile}"), row(h, &arm));
        }
    }
    println!("\n=== Figure 11: % faster codes, loop-aware vs ablations ===");
    for s in SUITES {
        let la = speedups(&h.pipeline(&h.looprag_arm("deepseek", "gcc"), s));
        let bm = speedups(&h.pipeline(
            &crate::harness::ArmKey {
                retrieval: "bm25".into(),
                ..h.looprag_arm("deepseek", "gcc")
            },
            s,
        ));
        let ws = speedups(&h.pipeline(
            &crate::harness::ArmKey {
                retrieval: "weighted".into(),
                ..h.looprag_arm("deepseek", "gcc")
            },
            s,
        ));
        println!(
            "{s:<10}  vs BM25 {:5.1}%   vs Weighted {:5.1}%",
            percent_faster(&la, &bm),
            percent_faster(&la, &ws)
        );
    }
}

/// Table 7 and Figure 12: feedback-round ablation.
pub fn table7_fig12(h: &Harness) {
    println!("\n=== Table 7: pass@k improvements from feedback rounds ===");
    println!(
        "{:<28} {:<10} {:>10} {:>8} {:>8}",
        "feedback", "LLM", "PolyBench", "TSVC", "LORE"
    );
    for profile in ["deepseek", "gpt-4"] {
        let mut first = Vec::new();
        let mut second = Vec::new();
        let mut rank = Vec::new();
        for s in SUITES {
            let r = h.pipeline(&h.looprag_arm(profile, "gcc"), s);
            let p = |f: &dyn Fn(&looprag_core::StepTrace) -> bool| {
                pass_at_k(&r.iter().map(|k| f(&k.steps)).collect::<Vec<_>>())
            };
            first.push(p(&|t| t.pass_step2) - p(&|t| t.pass_step1));
            second.push(p(&|t| t.pass_step3_repaired) - p(&|t| t.pass_step3));
            rank.push(p(&|t| t.pass_step4) - p(&|t| t.pass_step2));
        }
        println!(
            "{:<28} {:<10} {:>10.2} {:>8.2} {:>8.2}",
            "First round of compilation", profile, first[0], first[1], first[2]
        );
        println!(
            "{:<28} {:<10} {:>10.2} {:>8.2} {:>8.2}",
            "Second round of compilation", profile, second[0], second[1], second[2]
        );
        println!(
            "{:<28} {:<10} {:>10.2} {:>8.2} {:>8.2}",
            "Testing + perf rankings", profile, rank[0], rank[1], rank[2]
        );
    }
    println!("\n=== Figure 12: % faster codes from testing+ranking feedback ===");
    for s in SUITES {
        let r = h.pipeline(&h.looprag_arm("deepseek", "gcc"), s);
        let improved = r
            .iter()
            .filter(|k| k.steps.best_speedup_step4 > k.steps.best_speedup_step2)
            .count();
        println!(
            "{s:<10}  {:5.1}% of kernels gained speed in steps 3-4",
            100.0 * improved as f64 / r.len().max(1) as f64
        );
    }
}

/// Figure 14: per-benchmark speedups, LOOPRAG vs base LLMs.
pub fn fig14(h: &Harness) {
    println!("\n=== Figure 14: per-benchmark speedups (vs GCC base) ===");
    let names = [
        "syrk",
        "gemm",
        "2mm",
        "atax",
        "mvt",
        "jacobi-1d",
        "jacobi-2d",
        "fdtd-2d",
        "heat-3d",
        "seidel-2d",
        "s233",
        "s319",
        "s000",
        "vpvtv",
        "lore_stencil9",
        "lore_matvec_strided",
        "lore_wavefront",
        "lore_pipeline3",
    ];
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "kernel", "LD", "LG", "base-DS", "base-GPT"
    );
    let mut tables = Vec::new();
    for s in SUITES {
        tables.push((
            h.pipeline(&h.looprag_arm("deepseek", "gcc"), s),
            h.pipeline(&h.looprag_arm("gpt-4", "gcc"), s),
            h.pipeline(&h.base_llm_arm("deepseek", "gcc"), s),
            h.pipeline(&h.base_llm_arm("gpt-4", "gcc"), s),
        ));
    }
    for name in names {
        for (ld, lg, bd, bg) in &tables {
            if let Some(k) = ld.iter().position(|r| r.name == name) {
                println!(
                    "{:<22} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    name, ld[k].speedup, lg[k].speedup, bd[k].speedup, bg[k].speedup
                );
            }
        }
    }
}

/// Ablation: tile-size sweep through the machine model on gemm.
pub fn ablation_tile(_h: &Harness) {
    println!("\n=== Ablation: tile size (gemm, machine model) ===");
    let gemm = looprag_suites::find("gemm").unwrap().program();
    let machine = looprag_machine::MachineConfig::gcc();
    let base = looprag_machine::estimate_cost(&gemm, &machine).unwrap();
    for size in [4i64, 8, 16, 32, 64] {
        let opts = PolyOptions {
            tile_size: size,
            ..Default::default()
        };
        let r = optimize(&gemm, &opts);
        match looprag_machine::estimate_cost(&r.program, &machine) {
            Ok(c) => println!("tile {size:>3}: speedup {:.2}x", base.speedup_of(&c)),
            Err(_) => println!("tile {size:>3}: cost model budget exceeded"),
        }
    }
}

/// Ablation: number of demonstrations sampled into the prompt.
pub fn ablation_demos(h: &Harness) {
    println!("\n=== Ablation: demonstrations per prompt (PolyBench, LD) ===");
    for demos in [0usize, 1, 3, 5] {
        let mut cfg = looprag_core::LoopRagConfig::new(looprag_llm::LlmProfile::deepseek());
        cfg.demos = demos;
        let rag = looprag_core::LoopRag::new(cfg, h.dataset.clone());
        let kernels = h.kernels(Suite::PolyBench);
        let results: Vec<f64> = kernels
            .iter()
            .map(|b| rag.optimize(&b.name, &b.program()).speedup)
            .collect();
        println!(
            "demos {demos}: avg speedup {:.2}x",
            average_speedup(&results)
        );
    }
}

/// Ablation: Eq. 3 penalty design — excess-only (paper) vs symmetric.
///
/// Quality proxy: how many of the transformation families the polyhedral
/// optimizer would apply to a target appear in the recipes of its top-3
/// retrieved demonstrations (higher = more informative demonstrations).
pub fn ablation_penalty(h: &Harness) {
    use looprag_retrieval::{LaWeights, RetrievalMode, Retriever};
    println!("\n=== Ablation: LAScore penalty design (demo usefulness) ===");
    let programs: Vec<(usize, looprag_ir::Program)> = h
        .dataset
        .examples
        .iter()
        .map(|e| (e.id, e.program()))
        .collect();
    for (label, symmetric) in [("excess-only (paper)", false), ("symmetric", true)] {
        let weights = LaWeights {
            symmetric_penalty: symmetric,
            ..Default::default()
        };
        let retriever = Retriever::with_weights(programs.iter().map(|(i, p)| (*i, p)), weights);
        let mut covered = 0usize;
        let mut wanted = 0usize;
        for b in h.kernels(Suite::PolyBench).iter().take(10) {
            let target = b.program();
            let target_fams = optimize(&target, &PolyOptions::default()).recipe.families();
            if target_fams.is_empty() {
                continue;
            }
            let hits = retriever.query(&target, RetrievalMode::LoopAware, 3);
            let mut demo_fams = Vec::new();
            for (id, _) in hits {
                if let Some(e) = h.dataset.examples.iter().find(|e| e.id == id) {
                    demo_fams.extend(e.families.iter().cloned());
                }
            }
            wanted += target_fams.len();
            covered += target_fams
                .iter()
                .filter(|f| demo_fams.iter().any(|d| d == &f.to_string()))
                .count();
        }
        println!(
            "{label:<22}: {covered}/{wanted} needed families present in top-3 demos ({:.0}%)",
            100.0 * covered as f64 / wanted.max(1) as f64
        );
    }
}

/// Runs every experiment.
pub fn run_all(h: &Harness) {
    fig1(h);
    table1(h);
    fig6(h);
    table2(h);
    fig7(h);
    table3_fig8(h);
    fig9(h);
    table4(h);
    table5_fig10(h);
    table6_fig11(h);
    table7_fig12(h);
    fig14(h);
    ablation_tile(h);
    ablation_penalty(h);
}

/// One experiment: prints its table or figure.
pub type Experiment = fn(&Harness);

/// Every experiment id the `experiments` binary accepts, with the
/// function it runs; paired artifacts (`table3`/`fig8`, ...) share one.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("all", run_all),
    ("fig1", fig1),
    ("table1", table1),
    ("fig6", fig6),
    ("table2", table2),
    ("fig7", fig7),
    ("table3", table3_fig8),
    ("fig8", table3_fig8),
    ("fig9", fig9),
    ("table4", table4),
    ("table5", table5_fig10),
    ("fig10", table5_fig10),
    ("table6", table6_fig11),
    ("fig11", table6_fig11),
    ("table7", table7_fig12),
    ("fig12", table7_fig12),
    ("fig14", fig14),
    ("ablation_tile", ablation_tile),
    ("ablation_penalty", ablation_penalty),
    ("ablation_demos", ablation_demos),
];

/// The function [`EXPERIMENTS`] lists for `id`, `None` for an unknown id.
pub fn experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_resolve() {
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|(other, _)| other != id),
                "duplicate id {id}"
            );
            assert!(experiment(id).is_some(), "{id} does not resolve");
        }
        assert!(experiment("all").is_some());
        for unknown in ["no_such_id", "", "--quick", "Fig1"] {
            assert!(experiment(unknown).is_none(), "{unknown:?} resolves");
        }
    }
}
