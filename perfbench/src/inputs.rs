//! Seeded inputs of the three workloads.
//!
//! Seed [`PAPER_SEED`] reproduces the paper's programs byte for byte:
//! `synthetic_program(Medium, 8)` for `fig6`, `call_heavy_program(8, 8)`
//! for `callheavy-farm` and the `warpctl bench` tenant modules for
//! `warpd-mix`. Any other seed renames the generated functions. The
//! call-heavy helpers shift their constants with the seed; `fig6` keeps
//! the paper's bodies and `warpd-mix` deals the paper's tenant bodies
//! to other tenants, so the exact counts are the same for every seed
//! (see `fig6_source` and `tenant_source`). Cold modules, named by
//! their serial, get new bodies.

use warp_workload::{function_source_with, FunctionSize};

/// The seed that reproduces the paper's inputs.
pub const PAPER_SEED: u64 = 0;

/// Tenant modules in the `warpd-mix` working set (as `warpctl bench`).
pub const TENANTS: usize = 16;
/// Functions per tenant module.
pub const TENANT_FUNCTIONS: usize = 5;
/// Body lines per tenant function.
pub const TENANT_LINES: usize = 16;
/// `S_n` of the `fig6` workload.
pub const FIG6_FUNCTIONS: usize = 8;
/// Drivers and helpers per driver of the `callheavy-farm` workload.
pub const CALLHEAVY: (usize, usize) = (8, 8);

/// The arguments of every fixed call into generated code.
pub const FIXED_X: f32 = 1.375;
/// The integer argument of the synthetic functions' fixed calls.
pub const FIXED_SAMPLES: i32 = 6;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `S_8` of `f_medium` builds on the work-stealing threads.
    Fig6,
    /// Cold call-heavy builds on a farm of worker processes.
    CallheavyFarm,
    /// Closed-loop clients against an in-process `warpd`.
    WarpdMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Fig6, Workload::CallheavyFarm, Workload::WarpdMix];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6",
            Workload::CallheavyFarm => "callheavy-farm",
            Workload::WarpdMix => "warpd-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A request class of the service rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An unchanged base module: every function hits the cache.
    Warm,
    /// A base module with one function body changed: one miss.
    Edit,
    /// A module never seen before: every function misses.
    Cold,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Warm, Class::Edit, Class::Cold];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Edit => "edit",
            Class::Cold => "cold",
        }
    }
}

/// One module variant of a workload's family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// Base module `tenant`.
    Warm { tenant: usize },
    /// Base module `tenant` with function `function` edited; no two
    /// generations have the same source.
    Edit {
        tenant: usize,
        function: usize,
        generation: usize,
    },
    /// A fresh module, unique per `serial`.
    Cold { serial: usize },
}

impl Variant {
    /// The request class this variant belongs to.
    pub fn class(self) -> Class {
        match self {
            Variant::Warm { .. } => Class::Warm,
            Variant::Edit { .. } => Class::Edit,
            Variant::Cold { .. } => Class::Cold,
        }
    }
}

/// A fixed call into generated code: module, function and arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedCall {
    /// Index of the base module holding the function.
    pub module: usize,
    /// Function name.
    pub function: String,
    /// `true` for `(x: float, samples: int)`, `false` for `(x: float)`.
    pub with_samples: bool,
}

/// The seeded module family of one workload.
#[derive(Debug, Clone)]
pub struct Family {
    /// The workload.
    pub workload: Workload,
    /// Name suffix derived from the seed (empty for the paper seed).
    tag: String,
    /// How far `warpd-mix` deals the tenant bodies round.
    deal: usize,
}

impl Family {
    /// The family of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Family {
        let tag = if seed == PAPER_SEED {
            String::new()
        } else {
            format!("s{seed}")
        };
        Family {
            workload,
            tag,
            deal: (seed % TENANTS as u64) as usize,
        }
    }

    /// Number of base modules (the working set).
    pub fn tenants(&self) -> usize {
        match self.workload {
            Workload::WarpdMix => TENANTS,
            Workload::Fig6 | Workload::CallheavyFarm => 1,
        }
    }

    /// Functions per module (the range of an edit's `function`).
    pub fn functions(&self) -> usize {
        match self.workload {
            Workload::Fig6 => FIG6_FUNCTIONS,
            Workload::CallheavyFarm => CALLHEAVY.0 * CALLHEAVY.1,
            Workload::WarpdMix => TENANT_FUNCTIONS,
        }
    }

    /// The base modules.
    pub fn bases(&self) -> Vec<String> {
        (0..self.tenants())
            .map(|tenant| self.source(Variant::Warm { tenant }))
            .collect()
    }

    /// Source text of one variant.
    pub fn source(&self, variant: Variant) -> String {
        let tag = &self.tag;
        match (self.workload, variant) {
            (Workload::Fig6, Variant::Warm { .. }) => fig6_source(tag, None),
            (
                Workload::Fig6,
                Variant::Edit {
                    function,
                    generation,
                    ..
                },
            ) => fig6_source(tag, Some((function, generation))),
            (Workload::Fig6, Variant::Cold { serial }) => {
                fig6_source(&format!("{tag}c{serial}"), None)
            }
            (Workload::CallheavyFarm, Variant::Warm { .. }) => callheavy_source(tag, None),
            (
                Workload::CallheavyFarm,
                Variant::Edit {
                    function,
                    generation,
                    ..
                },
            ) => callheavy_source(tag, Some((function, generation))),
            (Workload::CallheavyFarm, Variant::Cold { serial }) => {
                callheavy_source(&format!("{tag}c{serial}"), None)
            }
            (Workload::WarpdMix, Variant::Warm { tenant }) => {
                tenant_source(&format!("t{tenant}{tag}"), &self.dealt(tenant), None)
            }
            (
                Workload::WarpdMix,
                Variant::Edit {
                    tenant,
                    function,
                    generation,
                },
            ) => tenant_source(
                &format!("t{tenant}{tag}"),
                &self.dealt(tenant),
                Some((function, generation)),
            ),
            (Workload::WarpdMix, Variant::Cold { serial }) => {
                let name = format!("cold{serial}{tag}");
                tenant_source(&name, &name, None)
            }
        }
    }

    /// The paper name whose bodies tenant `tenant` gets.
    fn dealt(&self, tenant: usize) -> String {
        format!("t{}", (tenant + self.deal) % TENANTS)
    }

    /// The fixed calls whose results are checked against the AST
    /// interpreter and whose strict-`Cell` cycles make `gen_cycles`.
    pub fn fixed_calls(&self) -> Vec<FixedCall> {
        let tag = &self.tag;
        match self.workload {
            Workload::Fig6 => (1..=FIG6_FUNCTIONS)
                .map(|k| FixedCall {
                    module: 0,
                    function: fig6_name(tag, k),
                    with_samples: true,
                })
                .collect(),
            Workload::CallheavyFarm => (0..CALLHEAVY.0)
                .map(|d| FixedCall {
                    module: 0,
                    function: format!("drive{}_{d}", under(tag)),
                    with_samples: false,
                })
                .collect(),
            Workload::WarpdMix => (0..TENANTS)
                .flat_map(|t| {
                    let tag = tag.clone();
                    (0..TENANT_FUNCTIONS).map(move |j| FixedCall {
                        module: t,
                        function: format!("t{t}{tag}_f{j}"),
                        with_samples: true,
                    })
                })
                .collect(),
        }
    }

    /// The service rotation's `i`-th request: 6 warm, 3 edits and 1 cold
    /// in every 10, the rotation of `warpctl bench`.
    pub fn rotation(&self, i: usize) -> Variant {
        let tenants = self.tenants();
        let serial = i / 10;
        match i % 10 {
            9 => Variant::Cold { serial: serial + 1 },
            n @ (3 | 6 | 8) => {
                let edit = serial * 3 + [3, 6, 8].iter().position(|&k| k == n).unwrap_or(0) + 1;
                Variant::Edit {
                    tenant: edit % tenants,
                    function: edit % self.functions(),
                    generation: edit,
                }
            }
            n => Variant::Warm {
                tenant: (serial * 7 + n) % tenants,
            },
        }
    }
}

fn under(tag: &str) -> String {
    if tag.is_empty() {
        String::new()
    } else {
        format!("_{tag}")
    }
}

fn fig6_name(tag: &str, k: usize) -> String {
    format!("{}{}_{k}", FunctionSize::Medium.paper_name(), under(tag))
}

/// Generated function `name` with the body the generator gives `body`
/// at `lines` lines. An `edit` generation lengthens the body by
/// `1 + generation % 7` lines, as `warpctl bench` does, and adds the
/// generation to the result, so no two generations share a source.
fn function_as(name: &str, body: &str, lines: usize, depth: usize, edit: Option<usize>) -> String {
    let lines = lines + edit.map_or(0, |g| 1 + g % 7);
    let f = function_source_with(body, lines, depth).replacen(
        &format!("function {body}("),
        &format!("function {name}("),
        1,
    );
    match edit {
        Some(g) => f.replace(
            "    return acc;\n  end;",
            &format!("    return acc + {g}.0;\n  end;"),
        ),
        None => f,
    }
}

/// `synthetic_program(Medium, 8)` with the functions renamed by `tag`;
/// `edit` changes one function. The bodies stay the paper's (seeded by
/// the paper names): with only eight functions, regenerated bodies
/// changed the compile time by up to 30% between seeds, so every seed's
/// module would be a different amount of work.
fn fig6_source(tag: &str, edit: Option<(usize, usize)>) -> String {
    let size = FunctionSize::Medium;
    let mut s = format!(
        "module s_{}_{}{};\nsection main on cells 0..9;\n",
        size.paper_name(),
        FIG6_FUNCTIONS,
        under(tag)
    );
    for k in 1..=FIG6_FUNCTIONS {
        let generation = edit
            .filter(|(j, _)| j % FIG6_FUNCTIONS == k - 1)
            .map(|e| e.1);
        s.push_str(&function_as(
            &fig6_name(tag, k),
            &fig6_name("", k),
            size.lines(),
            size.max_depth(),
            generation,
        ));
        s.push('\n');
    }
    s.push_str("end;\n");
    s
}

/// `call_heavy_program(8, 8)` with the functions renamed by `tag`.
/// Renamed modules shift the helpers' constants; `edit` shifts one
/// helper's constant by its generation.
fn callheavy_source(tag: &str, edit: Option<(usize, usize)>) -> String {
    let (drivers, helpers) = CALLHEAVY;
    let tag_ = under(tag);
    let shift = tag.bytes().map(u64::from).sum::<u64>() % 17;
    let mut s = String::from(
        "module callheavy;
section main on cells 0..9;
",
    );
    for d in 0..drivers {
        for h in 0..helpers {
            let edited = edit.filter(|(j, _)| j % (drivers * helpers) == d * helpers + h);
            let nudge = (shift + edited.map_or(0, |e| e.1 as u64)) as f64 * 0.001;
            s.push_str(&format!(
                "  function help{tag_}_{d}_{h}(y: float): float
                   var u: float; w: float;
                   begin
                     u := y * {c1:.3} + {c2:.3};
                     w := sqrt(abs(u) + 0.5);
                     u := u + w * {c3:.3};
                     w := min(u, 4.0) * max(w, 0.25);
                     u := u * 0.5 + w;
                     return u;
                   end;
",
                c1 = 0.3 + 0.1 * (d + h) as f64,
                c2 = 0.7 + 0.05 * h as f64 + nudge,
                c3 = 1.1 + 0.2 * d as f64,
            ));
        }
        let mut calls = String::new();
        for h in 0..helpers {
            calls.push_str(&format!(
                "      t := t + help{tag_}_{d}_{h}(v[i]);
"
            ));
        }
        s.push_str(&format!(
            "  function drive{tag_}_{d}(x: float): float
               var t: float; v: float[32]; i: int;
               begin
                 for i := 0 to 31 do v[i] := float(i) * 0.25 + x; end;
                 t := 0.0;
                 for i := 0 to 31 do
{calls}      end;
                 return t;
               end;
"
        ));
    }
    s.push_str(
        "end;
",
    );
    s
}

/// A `warpctl bench` tenant module: functions `{prefix}_f{j}` with the
/// bodies of `{body}_f{j}`; `edit` changes one function. Other seeds
/// deal the paper's tenant bodies round rather than generate new ones,
/// so `code_words` and `gen_cycles` are the same for every seed.
fn tenant_source(prefix: &str, body: &str, edit: Option<(usize, usize)>) -> String {
    let mut s = format!("module {prefix};\nsection main on cells 0..9;\n");
    for j in 0..TENANT_FUNCTIONS {
        let generation = edit.filter(|(f, _)| f % TENANT_FUNCTIONS == j).map(|e| e.1);
        s.push_str(&function_as(
            &format!("{prefix}_f{j}"),
            &format!("{body}_f{j}"),
            TENANT_LINES,
            2,
            generation,
        ));
        s.push('\n');
    }
    s.push_str("end;\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_workload::{call_heavy_program, synthetic_program};

    #[test]
    fn paper_seed_generates_the_paper_programs() {
        let fig6 = Family::new(Workload::Fig6, PAPER_SEED).bases();
        assert_eq!(fig6, vec![synthetic_program(FunctionSize::Medium, 8)]);
        let heavy = Family::new(Workload::CallheavyFarm, PAPER_SEED).bases();
        assert_eq!(heavy, vec![call_heavy_program(8, 8)]);
    }

    #[test]
    fn other_seeds_rename_the_functions() {
        for w in Workload::ALL {
            let a = Family::new(w, PAPER_SEED);
            let b = Family::new(w, 7);
            assert_ne!(a.bases(), b.bases(), "{}", w.name());
            assert_eq!(a.bases().len(), b.bases().len());
            let names = |f: &Family| -> Vec<String> {
                f.fixed_calls().into_iter().map(|c| c.function).collect()
            };
            assert!(names(&a).iter().all(|n| !names(&b).contains(n)));
        }
        // fig6 keeps the paper's bodies under the new names.
        let renamed = Family::new(Workload::Fig6, 7).bases()[0].replace("_s7", "");
        assert_eq!(renamed, synthetic_program(FunctionSize::Medium, 8));
        // warpd-mix deals the paper's tenant bodies round.
        let paper = Family::new(Workload::WarpdMix, PAPER_SEED).bases();
        let dealt = Family::new(Workload::WarpdMix, 7).bases();
        assert_eq!(dealt[0].replace("t0s7", "t7"), paper[7]);
    }

    #[test]
    fn edits_never_repeat() {
        for w in Workload::ALL {
            let f = Family::new(w, 3);
            let mut seen = std::collections::HashSet::new();
            for i in 0..20_000 {
                let v = f.rotation(i);
                if v.class() == Class::Edit {
                    assert!(seen.insert(f.source(v)), "{} edit {i} repeats", w.name());
                }
            }
        }
    }

    #[test]
    fn rotation_is_sixty_thirty_ten() {
        let f = Family::new(Workload::WarpdMix, 3);
        let mut counts = [0usize; 3];
        for i in 0..1000 {
            counts[f.rotation(i).class() as usize] += 1;
        }
        assert_eq!(counts, [600, 300, 100]);
    }

    #[test]
    fn variants_differ_from_their_base() {
        for w in Workload::ALL {
            let f = Family::new(w, 5);
            let base = f.source(Variant::Warm { tenant: 0 });
            let edit = f.source(Variant::Edit {
                tenant: 0,
                function: 1,
                generation: 2,
            });
            let cold = f.source(Variant::Cold { serial: 1 });
            assert_ne!(base, edit);
            assert_ne!(base, cold);
        }
    }
}
