//! Dataset containers: example code + optimized version + recipe +
//! dataflow statistics, with JSON persistence.

use crate::generator::{generate_cola_example, generate_example};
use crate::params::LoopParams;
use crate::stats::{property_stats, LoopPropertyStats};
use looprag_ir::{parse_program, print_program, Program};
use looprag_polyopt::{optimize, PolyOptions};
use looprag_runtime::{par_map, resolve_threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Where a dataset record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Provenance {
    /// Produced by the §4.1 example generators.
    #[default]
    Synthesized,
    /// Mined from a verified pipeline win (the feedback-indexing loop:
    /// an original → optimized pair that passed differential testing).
    Mined,
}

// The vendored serde shim's derives cover named-field structs only, so
// the enum round-trips through its string name by hand.
impl serde::Serialize for Provenance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                Provenance::Synthesized => "synthesized",
                Provenance::Mined => "mined",
            }
            .to_string(),
        )
    }
}

impl serde::Deserialize for Provenance {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) if s == "synthesized" => Ok(Provenance::Synthesized),
            serde::Value::Str(s) if s == "mined" => Ok(Provenance::Mined),
            _ => Err(serde::DeError::custom("unknown provenance")),
        }
    }
}

/// One dataset entry: an example, its optimized version and the
/// extracted dataflow information.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExampleRecord {
    /// Stable id, unique within its dataset: synthesis numbers records
    /// sequentially and mined records continue after the maximum, so
    /// appended records keep their ids through JSON round-trips.
    pub id: usize,
    /// Example source text.
    pub source: String,
    /// Optimized version source text (from the polyhedral optimizer).
    pub optimized: String,
    /// Human-readable transformation steps applied.
    pub recipe: Vec<String>,
    /// Transformation families triggered (Table 4 vocabulary).
    pub families: Vec<String>,
    /// Loop-property statistics (the retrieval "dataflow information").
    pub stats: LoopPropertyStats,
    /// Where the record came from.
    pub provenance: Provenance,
}

// Manual impl instead of the shim derive: datasets persisted before the
// provenance tag existed must still load (missing field defaults to
// `Synthesized` — every pre-tag record was synthesized by construction).
impl serde::Deserialize for ExampleRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn req<'a>(v: &'a serde::Value, key: &str) -> Result<&'a serde::Value, serde::DeError> {
            v.get(key).ok_or_else(|| serde::DeError::missing_field(key))
        }
        Ok(ExampleRecord {
            id: serde::Deserialize::from_value(req(v, "id")?)?,
            source: serde::Deserialize::from_value(req(v, "source")?)?,
            optimized: serde::Deserialize::from_value(req(v, "optimized")?)?,
            recipe: serde::Deserialize::from_value(req(v, "recipe")?)?,
            families: serde::Deserialize::from_value(req(v, "families")?)?,
            stats: serde::Deserialize::from_value(req(v, "stats")?)?,
            provenance: match v.get("provenance") {
                Some(p) => serde::Deserialize::from_value(p)?,
                None => Provenance::Synthesized,
            },
        })
    }
}

impl ExampleRecord {
    /// Parses the example source back into IR.
    ///
    /// # Panics
    ///
    /// Panics when the stored text is corrupt; records are only created
    /// from printed programs, so this indicates storage corruption.
    pub fn program(&self) -> Program {
        parse_program(&self.source, &format!("ex_{}", self.id)).expect("corrupt example source")
    }

    /// Parses the optimized source back into IR.
    ///
    /// # Panics
    ///
    /// Panics when the stored text is corrupt.
    pub fn optimized_program(&self) -> Program {
        parse_program(&self.optimized, &format!("ex_{}_opt", self.id))
            .expect("corrupt optimized source")
    }
}

/// A dataset of demonstration pairs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The records.
    pub examples: Vec<ExampleRecord>,
}

impl Dataset {
    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failures.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The next free record id (one past the maximum in use), so
    /// appended records — e.g. mined feedback pairs — get stable ids
    /// that survive JSON round-trips.
    pub fn next_id(&self) -> usize {
        self.examples.iter().map(|e| e.id + 1).max().unwrap_or(0)
    }
}

/// Which generator produces the example pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// The paper's parameter-driven method.
    ParameterDriven,
    /// The COLA-Gen baseline (single statement, perfect nest,
    /// loop-carried dependence).
    ColaGen,
}

/// Dataset-building configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed; the whole dataset is a pure function of this.
    pub seed: u64,
    /// Number of examples to produce. The paper synthesizes 135,364;
    /// experiment defaults here are smaller so runs finish on one
    /// machine, and the count is recorded in EXPERIMENTS.md.
    pub count: usize,
    /// Generator choice.
    pub generator: GeneratorKind,
    /// Optimizer options used to produce the optimized versions.
    /// Dataset builds default to tile size 8 so the verification oracle
    /// exercises multiple tiles cheaply; the demonstrated *structure* is
    /// identical to PLuTo's 32-sized tiles.
    pub polyopt: PolyOptions,
    /// Worker-pool size for the labelling phase (0 = auto: the
    /// `LOOPRAG_THREADS` variable, then the machine's parallelism). The
    /// dataset is the same at any pool size.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        let polyopt = PolyOptions {
            tile_size: 8,
            ..PolyOptions::default()
        };
        SynthConfig {
            seed: 0x0100_B4A6,
            count: 200,
            generator: GeneratorKind::ParameterDriven,
            polyopt,
            threads: 0,
        }
    }
}

/// Synthesizes a dataset: generate examples, optimize each with the
/// polyhedral optimizer, extract properties, and store all three.
///
/// Two phases:
///
/// 1. **Draw** (sequential): every random choice — [`LoopParams::sample`],
///    the generators and the record ids — comes from one RNG seeded with
///    `cfg.seed`, in a fixed order.
/// 2. **Label** (`par_map` on `cfg.threads` workers): [`optimize`] and
///    [`property_stats`] draw no random numbers, so each record is a pure
///    function of its drawn program and the results come back in draw
///    order.
///
/// The dataset is therefore byte-identical at any pool size by
/// construction.
///
/// Examples whose optimized version ends up identical to the source (no
/// transformation found) are still kept — they demonstrate "nothing to
/// do", which the retriever's penalty term handles.
pub fn build_dataset(cfg: &SynthConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut programs = Vec::with_capacity(cfg.count);
    let mut attempts = 0usize;
    let max_attempts = cfg.count * 30 + 100;
    while programs.len() < cfg.count && attempts < max_attempts {
        attempts += 1;
        let id = programs.len();
        let program = match cfg.generator {
            GeneratorKind::ParameterDriven => {
                let params = LoopParams::sample(&mut rng);
                match generate_example(&params, id, &mut rng) {
                    Some(p) => p,
                    None => continue,
                }
            }
            GeneratorKind::ColaGen => generate_cola_example(id, &mut rng),
        };
        programs.push(program);
    }
    let examples = par_map(resolve_threads(cfg.threads), &programs, |id, program| {
        let opt = optimize(program, &cfg.polyopt);
        ExampleRecord {
            id,
            source: print_program(program),
            optimized: print_program(&opt.program),
            recipe: opt.recipe.steps.iter().map(|s| s.to_string()).collect(),
            families: opt
                .recipe
                .families()
                .iter()
                .map(|f| f.to_string())
                .collect(),
            stats: property_stats(program),
            provenance: Provenance::Synthesized,
        }
    });
    Dataset { examples }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: GeneratorKind, count: usize) -> Dataset {
        let cfg = SynthConfig {
            count,
            generator: kind,
            ..Default::default()
        };
        build_dataset(&cfg)
    }

    #[test]
    fn builds_requested_count() {
        let d = tiny(GeneratorKind::ParameterDriven, 8);
        assert_eq!(d.examples.len(), 8);
        for e in &d.examples {
            // Round-trip both texts.
            let _ = e.program();
            let _ = e.optimized_program();
        }
    }

    #[test]
    fn json_round_trip() {
        let d = tiny(GeneratorKind::ColaGen, 4);
        let json = d.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn save_load_save_is_byte_stable() {
        // Persistence must be a fixed point: save -> load -> save gives
        // the same bytes, so snapshots never churn across restarts (the
        // serve layer's byte-identical restore relies on this).
        let mut d = tiny(GeneratorKind::ParameterDriven, 4);
        let mut mined = d.examples[0].clone();
        mined.id = d.next_id();
        mined.provenance = Provenance::Mined;
        d.examples.push(mined);
        let first = d.to_json().unwrap();
        let second = Dataset::from_json(&first).unwrap().to_json().unwrap();
        assert_eq!(first, second, "save -> load -> save drifted");
    }

    #[test]
    fn corrupted_snapshots_are_rejected_descriptively() {
        let d = tiny(GeneratorKind::ColaGen, 2);
        let json = d.to_json().unwrap();
        // Truncation mid-document.
        let truncated = &json[..json.len() / 2];
        let err = Dataset::from_json(truncated).expect_err("truncated JSON must not load");
        assert!(
            !err.to_string().is_empty(),
            "truncation error must be descriptive"
        );
        // A record with the wrong shape (id as string).
        let retyped = json.replacen("\"id\":0", "\"id\":\"zero\"", 1);
        assert_ne!(retyped, json, "id field not found in JSON");
        let err = Dataset::from_json(&retyped).expect_err("retyped id must not load");
        assert!(
            !err.to_string().is_empty(),
            "type-mismatch error must be descriptive"
        );
        // Not JSON at all.
        assert!(Dataset::from_json("not json").is_err());
    }

    #[test]
    fn mined_records_round_trip_with_provenance_and_id() {
        let mut d = tiny(GeneratorKind::ColaGen, 3);
        let mut mined = d.examples[0].clone();
        mined.id = d.next_id();
        mined.provenance = Provenance::Mined;
        mined.recipe = vec!["mined:gemm".to_string()];
        d.examples.push(mined);
        let back = Dataset::from_json(&d.to_json().unwrap()).unwrap();
        assert_eq!(d, back);
        assert_eq!(back.examples[3].provenance, Provenance::Mined);
        assert_eq!(back.examples[3].id, 3);
        assert_eq!(back.next_id(), 4);
    }

    #[test]
    fn datasets_without_provenance_field_still_load() {
        // A record persisted before the provenance tag existed: the
        // field is absent from the JSON and must default to Synthesized.
        let d = tiny(GeneratorKind::ColaGen, 1);
        let json = d.to_json().unwrap();
        let legacy = json.replace(",\"provenance\":\"synthesized\"", "");
        assert_ne!(legacy, json, "provenance field not found in JSON");
        let back = Dataset::from_json(&legacy).unwrap();
        assert_eq!(back.examples[0].provenance, Provenance::Synthesized);
        assert_eq!(back, d);
    }

    #[test]
    fn parameter_driven_triggers_more_families_than_cola() {
        let pd = tiny(GeneratorKind::ParameterDriven, 25);
        let cg = tiny(GeneratorKind::ColaGen, 25);
        let fams = |d: &Dataset| {
            let mut set: Vec<String> = d
                .examples
                .iter()
                .flat_map(|e| e.families.iter().cloned())
                .collect();
            set.sort();
            set.dedup();
            set
        };
        let pd_f = fams(&pd);
        let cg_f = fams(&cg);
        assert!(
            pd_f.len() > cg_f.len(),
            "parameter-driven {pd_f:?} vs cola {cg_f:?}"
        );
        assert!(pd_f.contains(&"Fusion".to_string()), "{pd_f:?}");
    }

    #[test]
    fn dataset_build_is_deterministic() {
        let a = tiny(GeneratorKind::ParameterDriven, 5);
        let b = tiny(GeneratorKind::ParameterDriven, 5);
        assert_eq!(a, b);
    }
}
