//! Register allocation: linear scan over loop-extended live intervals.
//!
//! Runs *before* scheduling (the schedulers work on physical
//! registers; register-reuse anti dependences then bound value
//! lifetimes, which is exactly the constraint modulo scheduling needs).
//! To keep false dependences rare the free list is used round-robin,
//! so recently freed registers are reused last.
//!
//! Register conventions:
//!
//! * `r0` — return value; `r1..=r8` — arguments (never allocated);
//! * `r9..=r11` — reserved scratch for the software pipeliner;
//! * `r12..` — allocatable.
//!
//! Values live across a call are saved to function-local data memory
//! before the call and reloaded after (the callee clobbers the whole
//! register file). Spills likewise go to data memory.

use crate::vcode::{VDest, VFunc, VOp, VOperand, VTerm};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use warp_ir::VirtReg;
use warp_target::config::CellConfig;
use warp_target::isa::{Opcode, Reg};

/// First allocatable register (below are conventions + scratch).
pub const FIRST_ALLOCATABLE: u16 = 12;
/// Scratch registers reserved for the pipeliner's loop control.
pub const SCRATCH: [Reg; 3] = [Reg(9), Reg(10), Reg(11)];

/// Statistics from register allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegAllocStats {
    /// Virtual registers spilled to memory.
    pub spilled: usize,
    /// Spill loads/stores inserted.
    pub spill_ops: usize,
    /// Save/restore ops inserted around calls.
    pub call_save_ops: usize,
    /// Allocation rounds (1 + respill rounds).
    pub rounds: usize,
    /// Peak register pressure observed.
    pub peak_pressure: usize,
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAllocError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "register allocation failed: {}", self.message)
    }
}

impl std::error::Error for RegAllocError {}

/// Per-block liveness of virtual registers.
fn vreg_liveness(vf: &VFunc) -> (Vec<HashSet<VirtReg>>, Vec<HashSet<VirtReg>>) {
    let n = vf.blocks.len();
    let mut live_in: Vec<HashSet<VirtReg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VirtReg>> = vec![HashSet::new(); n];
    let mut use_def: Vec<(HashSet<VirtReg>, HashSet<VirtReg>)> = Vec::with_capacity(n);
    for b in &vf.blocks {
        let mut uses = HashSet::new();
        let mut defs = HashSet::new();
        for op in &b.ops {
            for o in op.operands() {
                if let Some(v) = o.as_virt() {
                    if !defs.contains(&v) {
                        uses.insert(v);
                    }
                }
            }
            // A select reads its destination before (maybe) writing it.
            if op.opcode == Opcode::SelT {
                if let Some(v) = op.dst.as_virt() {
                    if !defs.contains(&v) {
                        uses.insert(v);
                    }
                }
            }
            if let Some(v) = op.dst.as_virt() {
                defs.insert(v);
            }
        }
        if let VTerm::Branch { cond, .. } = &b.term {
            if let Some(v) = cond.as_virt() {
                if !defs.contains(&v) {
                    uses.insert(v);
                }
            }
        }
        use_def.push((uses, defs));
    }
    let preds = vf.predecessors();
    let mut work: Vec<usize> = (0..n).rev().collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut out: HashSet<VirtReg> = HashSet::new();
        for s in vf.blocks[b].term.successors() {
            out.extend(live_in[s].iter().copied());
        }
        let (uses, defs) = &use_def[b];
        let mut inn: HashSet<VirtReg> = uses.clone();
        inn.extend(out.difference(defs).copied());
        live_out[b] = out;
        if inn != live_in[b] {
            live_in[b] = inn;
            for &p in &preds[b] {
                if !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
        }
    }
    (live_in, live_out)
}

/// Inserts save/restore pairs around every call for virtual registers
/// live into the continuation block. Returns the number of ops added.
fn insert_call_saves(vf: &mut VFunc) -> usize {
    let (live_in, _) = vreg_liveness(vf);
    let mut slot_of: HashMap<VirtReg, u32> = HashMap::new();
    let mut added = 0usize;
    for bi in 0..vf.blocks.len() {
        let VTerm::Call { next, .. } = vf.blocks[bi].term else {
            continue;
        };
        let mut live: Vec<VirtReg> = live_in[next].iter().copied().collect();
        live.sort();
        for v in live {
            let slot = *slot_of.entry(v).or_insert_with(|| vf.new_data_word());
            vf.blocks[bi].ops.push(VOp {
                opcode: Opcode::Store,
                dst: VDest::None,
                a: Some(VOperand::Addr(slot)),
                b: Some(VOperand::Virt(v)),
            });
            vf.blocks[next].ops.insert(
                0,
                VOp {
                    opcode: Opcode::Load,
                    dst: VDest::Virt(v),
                    a: Some(VOperand::Addr(slot)),
                    b: None,
                },
            );
            added += 2;
        }
    }
    added
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VirtReg,
    start: usize,
    end: usize,
}

/// Computes loop-extended live intervals over a linearization of the
/// blocks (block order = layout order).
fn intervals(vf: &VFunc) -> Vec<Interval> {
    let (live_in, live_out) = vreg_liveness(vf);
    // Linear positions.
    let mut block_range: Vec<(usize, usize)> = Vec::with_capacity(vf.blocks.len());
    let mut pos = 0usize;
    for b in &vf.blocks {
        let start = pos;
        pos += b.ops.len().max(1) + 1; // +1 for the terminator
        block_range.push((start, pos - 1));
    }
    let mut map: HashMap<VirtReg, Interval> = HashMap::new();
    let touch = |v: VirtReg, p: usize, map: &mut HashMap<VirtReg, Interval>| {
        let e = map.entry(v).or_insert(Interval {
            vreg: v,
            start: p,
            end: p,
        });
        e.start = e.start.min(p);
        e.end = e.end.max(p);
    };
    for (bi, b) in vf.blocks.iter().enumerate() {
        let (bstart, bend) = block_range[bi];
        for (oi, op) in b.ops.iter().enumerate() {
            let p = bstart + oi;
            for o in op.operands() {
                if let Some(v) = o.as_virt() {
                    touch(v, p, &mut map);
                }
            }
            if let Some(v) = op.dst.as_virt() {
                touch(v, p, &mut map);
            }
        }
        if let VTerm::Branch { cond, .. } = &b.term {
            if let Some(v) = cond.as_virt() {
                touch(v, bend, &mut map);
            }
        }
        // Live-range extension: anything live into or out of the block
        // covers the whole block (loop-safe approximation).
        for &v in &live_in[bi] {
            touch(v, bstart, &mut map);
        }
        for &v in &live_out[bi] {
            touch(v, bend, &mut map);
        }
    }
    let mut out: Vec<Interval> = map.into_values().collect();
    out.sort_by_key(|i| (i.start, i.end, i.vreg));
    out
}

/// Rewrites every occurrence of spilled vregs with fresh short-lived
/// vregs plus loads/stores. Returns ops inserted.
fn spill(vf: &mut VFunc, victims: &HashSet<VirtReg>) -> usize {
    // Hand out slots in vreg order: iterating the set directly would
    // make the slot addresses, and so the module bytes, follow the
    // hash seed.
    let mut ordered: Vec<VirtReg> = victims.iter().copied().collect();
    ordered.sort_unstable();
    let mut slots: HashMap<VirtReg, u32> = HashMap::new();
    for v in ordered {
        slots.insert(v, vf.new_data_word());
    }
    let mut inserted = 0usize;
    for bi in 0..vf.blocks.len() {
        let old_ops = std::mem::take(&mut vf.blocks[bi].ops);
        let mut new_ops = Vec::with_capacity(old_ops.len());
        for mut op in old_ops {
            // Loads before uses.
            let patch = |o: &mut Option<VOperand>,
                         vf: &mut VFunc,
                         new_ops: &mut Vec<VOp>,
                         inserted: &mut usize| {
                if let Some(VOperand::Virt(v)) = o {
                    if let Some(&slot) = slots.get(v) {
                        let t = vf.new_vreg();
                        new_ops.push(VOp {
                            opcode: Opcode::Load,
                            dst: VDest::Virt(t),
                            a: Some(VOperand::Addr(slot)),
                            b: None,
                        });
                        *o = Some(VOperand::Virt(t));
                        *inserted += 1;
                    }
                }
            };
            let mut a = op.a;
            let mut b = op.b;
            patch(&mut a, vf, &mut new_ops, &mut inserted);
            patch(&mut b, vf, &mut new_ops, &mut inserted);
            op.a = a;
            op.b = b;
            // Store after defs. A spilled SelT destination is a
            // read-modify-write: load the current value first.
            let dst_v = op.dst.as_virt().filter(|v| slots.contains_key(v));
            if let Some(v) = dst_v {
                let t = vf.new_vreg();
                if op.opcode == Opcode::SelT {
                    new_ops.push(VOp {
                        opcode: Opcode::Load,
                        dst: VDest::Virt(t),
                        a: Some(VOperand::Addr(slots[&v])),
                        b: None,
                    });
                    inserted += 1;
                }
                op.dst = VDest::Virt(t);
                new_ops.push(op);
                new_ops.push(VOp {
                    opcode: Opcode::Store,
                    dst: VDest::None,
                    a: Some(VOperand::Addr(slots[&v])),
                    b: Some(VOperand::Virt(t)),
                });
                inserted += 1;
            } else {
                new_ops.push(op);
            }
        }
        vf.blocks[bi].ops = new_ops;
        // Branch conditions can also be spilled vregs.
        let cond_slot = match &vf.blocks[bi].term {
            VTerm::Branch { cond, .. } => cond.as_virt().and_then(|v| slots.get(&v).copied()),
            _ => None,
        };
        if let Some(slot) = cond_slot {
            // Load it at the end of the block.
            let t = vf.new_vreg();
            vf.blocks[bi].ops.push(VOp {
                opcode: Opcode::Load,
                dst: VDest::Virt(t),
                a: Some(VOperand::Addr(slot)),
                b: None,
            });
            if let VTerm::Branch { cond, .. } = &mut vf.blocks[bi].term {
                *cond = VOperand::Virt(t);
            }
            inserted += 1;
        }
    }
    inserted
}

/// Allocates registers for `vf` in place.
///
/// # Errors
///
/// Fails if a valid allocation cannot be found after bounded respill
/// rounds (pathological register pressure).
pub fn allocate(vf: &mut VFunc, config: &CellConfig) -> Result<RegAllocStats, RegAllocError> {
    let mut stats = RegAllocStats {
        call_save_ops: insert_call_saves(vf),
        ..Default::default()
    };

    let pool_size = config.num_regs.saturating_sub(FIRST_ALLOCATABLE);
    if pool_size < 4 {
        return Err(RegAllocError {
            message: "machine has too few registers".into(),
        });
    }

    for round in 0..10 {
        stats.rounds = round + 1;
        let ivs = intervals(vf);
        // Linear scan.
        let mut free: VecDeque<Reg> = (FIRST_ALLOCATABLE..config.num_regs).map(Reg).collect();
        let mut active: Vec<(usize, Reg, VirtReg)> = Vec::new(); // (end, reg, vreg)
        let mut assignment: HashMap<VirtReg, Reg> = HashMap::new();
        let mut victims: HashSet<VirtReg> = HashSet::new();
        for iv in &ivs {
            // Expire.
            let mut kept = Vec::with_capacity(active.len());
            for (end, reg, v) in active.drain(..) {
                if end < iv.start {
                    free.push_back(reg);
                } else {
                    kept.push((end, reg, v));
                }
            }
            active = kept;
            stats.peak_pressure = stats.peak_pressure.max(active.len() + 1);
            match free.pop_front() {
                Some(reg) => {
                    assignment.insert(iv.vreg, reg);
                    active.push((iv.end, reg, iv.vreg));
                }
                None => {
                    // Spill the interval that ends furthest away.
                    let (far_end_idx, &(far_end, far_reg, far_v)) = active
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, (e, _, _))| *e)
                        .expect("active nonempty when pool exhausted");
                    if far_end > iv.end {
                        victims.insert(far_v);
                        assignment.remove(&far_v);
                        assignment.insert(iv.vreg, far_reg);
                        active[far_end_idx] = (iv.end, far_reg, iv.vreg);
                    } else {
                        victims.insert(iv.vreg);
                    }
                }
            }
        }
        if victims.is_empty() {
            rewrite(vf, &assignment);
            return Ok(stats);
        }
        stats.spilled += victims.len();
        stats.spill_ops += spill(vf, &victims);
    }
    Err(RegAllocError {
        message: "unresolvable register pressure after 10 spill rounds".into(),
    })
}

/// Rewrites all virtual operands with their assigned registers, then
/// deletes identity moves (`mov r, r`) that appear when the allocator
/// gave a copy's source and destination the same register.
fn rewrite(vf: &mut VFunc, assignment: &HashMap<VirtReg, Reg>) {
    let map = |o: &mut Option<VOperand>| {
        if let Some(VOperand::Virt(v)) = o {
            let r = assignment.get(v).copied().unwrap_or(Reg(FIRST_ALLOCATABLE));
            *o = Some(VOperand::Phys(r));
        }
    };
    for b in &mut vf.blocks {
        for op in &mut b.ops {
            map(&mut op.a);
            map(&mut op.b);
            if let VDest::Virt(v) = op.dst {
                let r = assignment
                    .get(&v)
                    .copied()
                    .unwrap_or(Reg(FIRST_ALLOCATABLE));
                op.dst = VDest::Phys(r);
            }
        }
        b.ops.retain(|op| {
            !(op.opcode == Opcode::Move
                && matches!((op.dst, op.a), (VDest::Phys(d), Some(VOperand::Phys(s))) if d == s))
        });
        if let VTerm::Branch { cond, .. } = &mut b.term {
            if let Some(VOperand::Virt(v)) = cond.as_virt().map(VOperand::Virt) {
                let r = assignment
                    .get(&v)
                    .copied()
                    .unwrap_or(Reg(FIRST_ALLOCATABLE));
                *cond = VOperand::Phys(r);
            }
        }
    }
}

/// `true` if the function contains no virtual operands (fully
/// allocated).
pub fn is_allocated(vf: &VFunc) -> bool {
    vf.blocks.iter().all(|b| {
        let term_ok = match &b.term {
            VTerm::Branch { cond, .. } => cond.as_virt().is_none(),
            _ => true,
        };
        term_ok
            && b.ops.iter().all(|op| {
                op.dst.as_virt().is_none() && op.operands().all(|o| o.as_virt().is_none())
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select;
    use warp_ir::phase2::phase2;
    use warp_lang::phase1;

    fn vfunc_for(src: &str, fn_idx: usize) -> VFunc {
        let checked = phase1(src).expect("phase1");
        let f = &checked.module.sections[0].functions[fn_idx];
        let r = phase2(
            f,
            &checked.sections[0].symbol_tables[fn_idx],
            &checked.sections[0].signatures,
        )
        .expect("phase2");
        select(&r.ir, &r.loops.pipelinable_blocks())
    }

    fn wrap(body: &str) -> String {
        format!(
            "module m; section a on cells 0..0; function f(x: float, n: int): float \
             var t: float; u: float; v: float[8]; i: int; begin {body} end; end;"
        )
    }

    #[test]
    fn simple_function_allocates_without_spills() {
        let mut vf = vfunc_for(&wrap("t := x * 2.0 + float(n); return t;"), 0);
        let stats = allocate(&mut vf, &CellConfig::default()).unwrap();
        assert_eq!(stats.spilled, 0);
        assert!(is_allocated(&vf), "{}", vf.dump());
    }

    #[test]
    fn loop_allocates_and_keeps_loop_vars() {
        let mut vf = vfunc_for(
            &wrap("t := 0.0; for i := 0 to 7 do t := t + v[i]; end; return t;"),
            0,
        );
        allocate(&mut vf, &CellConfig::default()).unwrap();
        assert!(is_allocated(&vf), "{}", vf.dump());
    }

    #[test]
    fn high_pressure_forces_spills() {
        // 60 simultaneously-live floats exceed the 52-register pool.
        let mut decls = String::new();
        let mut sets = String::new();
        let mut sum = String::from("t := 0.0;");
        for k in 0..60 {
            decls.push_str(&format!("a{k}: float; "));
            sets.push_str(&format!("a{k} := x + {k}.0; "));
        }
        sum.push_str("receive(left, x);"); // barrier so defs stay live
        for k in 0..60 {
            sum.push_str(&format!("t := t + a{k}; "));
        }
        let src = format!(
            "module m; section a on cells 0..0; function f(x: float): float \
             var t: float; {decls} begin {sets} {sum} return t; end; end;"
        );
        let mut vf = vfunc_for(&src, 0);
        let cfg = CellConfig::default();
        let stats = allocate(&mut vf, &cfg).unwrap();
        assert!(stats.spilled > 0, "{stats:?}");
        assert!(is_allocated(&vf));
        // Spill slots extended the data area.
        assert!(vf.data_words > vf.array_words);
    }

    #[test]
    fn call_saves_inserted_for_live_values() {
        let src = "module m; section a on cells 0..0; \
             function g(y: float): float begin return y; end; \
             function f(x: float): float var t: float; u: float; begin \
             t := x * 3.0; u := g(x); return t + u; end; end;";
        let mut vf = vfunc_for(src, 1);
        let stats = allocate(&mut vf, &CellConfig::default()).unwrap();
        // t is live across the call to g → one store + one load.
        assert!(stats.call_save_ops >= 2, "{stats:?}\n{}", vf.dump());
        assert!(is_allocated(&vf));
    }

    #[test]
    fn allocation_avoids_convention_registers() {
        let mut vf = vfunc_for(&wrap("t := x + float(n); return t;"), 0);
        allocate(&mut vf, &CellConfig::default()).unwrap();
        for b in &vf.blocks {
            for op in &b.ops {
                // Destinations below FIRST_ALLOCATABLE only when the
                // calling convention requires them (moves to r0/r1..).
                if let VDest::Phys(r) = op.dst {
                    if r.0 < FIRST_ALLOCATABLE {
                        assert!(
                            op.opcode == Opcode::Move || op.opcode == Opcode::Load,
                            "unexpected low-reg def: {op}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_vregs_prefer_distinct_registers() {
        let mut vf = vfunc_for(&wrap("t := x + 1.0; u := x + 2.0; return t + u;"), 0);
        allocate(&mut vf, &CellConfig::default()).unwrap();
        // Count distinct destination registers: round-robin should not
        // instantly reuse.
        let mut dsts = HashSet::new();
        for b in &vf.blocks {
            for op in &b.ops {
                if let VDest::Phys(r) = op.dst {
                    if r.0 >= FIRST_ALLOCATABLE {
                        dsts.insert(r);
                    }
                }
            }
        }
        assert!(dsts.len() >= 3, "{}", vf.dump());
    }
}
