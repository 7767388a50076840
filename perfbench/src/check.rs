//! Output checks. Every check runs outside the timed loops.
//!
//! * Each executor's module must encode byte-identically to
//!   `compile_module_source` of the same source.
//! * Each fixed call runs on the strict `Cell`; its result and output
//!   queues must equal the independent AST interpreter's bit for bit.
//! * No farm worker process may outlive its build.

use crate::inputs::{Family, FixedCall, FIXED_SAMPLES, FIXED_X};
use parcc::{compile_module_source, CompileOptions};
use warp_lang::interp::{AstInterp, RtValue};
use warp_target::interp::{Cell, Value};
use warp_target::isa::Reg;
use warp_target::program::ModuleImage;

/// Download-format bytes of a module image.
///
/// # Panics
///
/// Panics if the image cannot be encoded, which only a compiler bug
/// can cause for a module that linked.
pub fn encode(image: &ModuleImage) -> Vec<u8> {
    warp_target::download::encode(image).expect("linked modules encode")
}

/// The reference build of one module: `compile_module_source` bytes
/// and instruction words.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Source text.
    pub source: String,
    /// Encoded module.
    pub bytes: Vec<u8>,
    /// The linked image.
    pub image: ModuleImage,
}

/// Compiles `source` with the sequential compiler.
///
/// # Errors
///
/// The compile error, rendered.
pub fn reference(source: &str) -> Result<Reference, String> {
    let r = compile_module_source(source, &CompileOptions::default()).map_err(|e| e.to_string())?;
    Ok(Reference {
        source: source.to_string(),
        bytes: encode(&r.module_image),
        image: r.module_image,
    })
}

/// Instruction words in a linked module.
pub fn code_words(image: &ModuleImage) -> u64 {
    image
        .section_images
        .iter()
        .flat_map(|s| s.functions.iter())
        .map(|f| u64::from(f.code_words()))
        .sum()
}

fn bits_of_rt(v: &RtValue) -> (bool, u32) {
    match v {
        RtValue::F(f) => (true, f.to_bits()),
        RtValue::I(i) => (false, *i as u32),
    }
}

fn bits_of_machine(v: &Value) -> (bool, u32) {
    match v {
        Value::F(f) => (true, f.to_bits()),
        Value::I(i) => (false, *i as u32),
    }
}

/// Runs one fixed call on the strict `Cell` and on the AST interpreter
/// and returns the machine's cycle count when both agree bit for bit.
///
/// # Errors
///
/// Describes the first disagreement or fault.
pub fn fixed_call(source: &str, image: &ModuleImage, call: &FixedCall) -> Result<u64, String> {
    let name = &call.function;
    let (args_m, args_r): (Vec<Value>, Vec<RtValue>) = if call.with_samples {
        (
            vec![Value::F(FIXED_X), Value::I(FIXED_SAMPLES)],
            vec![RtValue::F(FIXED_X), RtValue::I(FIXED_SAMPLES)],
        )
    } else {
        (vec![Value::F(FIXED_X)], vec![RtValue::F(FIXED_X)])
    };
    let section = image
        .section_images
        .first()
        .cloned()
        .ok_or("module has no section")?;
    let mut cell = Cell::new(CompileOptions::default().cell, section).map_err(|e| e.to_string())?;
    cell.set_strict(true);
    cell.prepare_call(name, &args_m)
        .map_err(|e| format!("{name}: {e}"))?;
    cell.run(4_000_000_000)
        .map_err(|e| format!("{name}: machine fault: {e}"))?;
    let ret = cell.reg(Reg::RET).map_err(|e| format!("{name}: {e}"))?;

    let checked = warp_lang::phase1(source).map_err(|e| format!("{name}: {e}"))?;
    let mut it = AstInterp::new(&checked, 0, 2_000_000_000);
    let want = it
        .call(name, &args_r)
        .map_err(|e| format!("{name}: reference: {e}"))?
        .ok_or_else(|| format!("{name}: reference returned nothing"))?;

    if bits_of_machine(&ret) != bits_of_rt(&want) {
        return Err(format!("{name}: machine {ret:?} vs reference {want:?}"));
    }
    let queues = [
        (&cell.out_left, &it.queues.out_left, "left"),
        (&cell.out_right, &it.queues.out_right, "right"),
    ];
    for (machine, reference, dir) in queues {
        let m: Vec<_> = machine.iter().map(bits_of_machine).collect();
        let r: Vec<_> = reference.iter().map(bits_of_rt).collect();
        if m != r {
            return Err(format!("{name}: {dir} queue differs from the reference"));
        }
    }
    Ok(cell.cycle())
}

/// Checks every fixed call of `family` against the reference builds
/// `refs` (one per base module) and returns the summed cycles.
///
/// # Errors
///
/// The first failing call.
pub fn fixed_calls(family: &Family, refs: &[Reference]) -> Result<u64, String> {
    let mut cycles = 0;
    for call in family.fixed_calls() {
        let r = &refs[call.module];
        cycles += fixed_call(&r.source, &r.image, &call)?;
    }
    Ok(cycles)
}

/// `Ok` when none of `pids` is still a live worker process.
///
/// # Errors
///
/// Names the first survivor.
pub fn workers_gone(pids: &[u32], worker_cmd: &std::path::Path) -> Result<(), String> {
    let worker = worker_cmd
        .file_name()
        .map(|n| n.to_string_lossy().into_owned());
    for pid in pids {
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        // A recycled pid belongs to another program; only ours count.
        let cmdline = String::from_utf8_lossy(&cmdline);
        if worker.as_deref().is_some_and(|w| cmdline.contains(w)) {
            return Err(format!("farm worker {pid} outlived its build"));
        }
    }
    Ok(())
}
