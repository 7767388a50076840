//! Machine-level dependence graph.
//!
//! After register allocation every operand is a physical register, so
//! register dependences (including the anti dependences introduced by
//! register reuse) are computed directly on the [`VOp`] list. Memory
//! dependences reuse the phase-2 idea — affine addresses in the loop
//! induction register — at the machine level, where an address is
//! `coeff·i + Addr(base) + offset`. Accesses to different bases are
//! independent (arrays and spill slots occupy disjoint regions and the
//! language bounds-checks constant subscripts).

use crate::vcode::{VBlock, VOp, VOperand};
use serde::{Deserialize, Serialize};
use warp_ir::deps::DepKind;
use warp_target::isa::{Opcode, Reg};

/// A dependence edge between two machine ops of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MDep {
    /// Source op index.
    pub from: usize,
    /// Destination op index.
    pub to: usize,
    /// Kind.
    pub kind: DepKind,
    /// Iteration distance (0 in non-loop blocks).
    pub distance: u32,
    /// Required issue-cycle separation: `t(to) ≥ t(from) + delay − II·distance`.
    pub delay: u32,
}

/// Per-op lists of edge indices, threaded through flat arrays: the
/// list of op `i` starts at `first[i]`, edge `k` is followed by
/// `next[k]`, and [`EdgeLists::END`] ends a list. Appending keeps the
/// order edges were found in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct EdgeLists {
    first: Vec<u32>,
    last: Vec<u32>,
    next: Vec<u32>,
}

impl EdgeLists {
    const END: u32 = u32::MAX;

    fn new(n: usize) -> EdgeLists {
        EdgeLists {
            first: vec![Self::END; n],
            last: vec![Self::END; n],
            next: Vec::new(),
        }
    }

    /// Appends the graph's next edge to op `i`'s list.
    fn append(&mut self, i: usize) {
        let k = self.next.len() as u32;
        self.next.push(Self::END);
        match self.last[i] {
            Self::END => self.first[i] = k,
            last => self.next[last as usize] = k,
        }
        self.last[i] = k;
    }

    fn iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |k: u32| (k != Self::END).then_some(k as usize);
        std::iter::successors(live(self.first[i]), move |&k| live(self.next[k]))
    }
}

/// The dependence graph of one block at machine level.
///
/// Besides the edge list the graph keeps, for every op, the indices of
/// its incoming and outgoing edges in the order they were found, so
/// walking one op's neighbours costs its degree rather than a scan of
/// every edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MDepGraph {
    /// Number of ops.
    pub n: usize,
    /// All edges, in the order they were found.
    pub edges: Vec<MDep>,
    /// Work counter: dependence tests performed.
    pub dep_tests: usize,
    /// The edges into each op.
    preds: EdgeLists,
    /// The edges out of each op.
    succs: EdgeLists,
}

impl MDepGraph {
    fn new(n: usize) -> MDepGraph {
        MDepGraph {
            n,
            edges: Vec::new(),
            dep_tests: 0,
            preds: EdgeLists::new(n),
            succs: EdgeLists::new(n),
        }
    }

    /// Predecessor edges of op `i`, in the order they were found.
    pub fn preds_of(&self, i: usize) -> impl Iterator<Item = &MDep> {
        self.preds.iter(i).map(|k| &self.edges[k])
    }

    /// Successor edges of op `i`, in the order they were found.
    pub fn succs_of(&self, i: usize) -> impl Iterator<Item = &MDep> {
        self.succs.iter(i).map(|k| &self.edges[k])
    }

    /// Adds an edge unless it is a distance-0 self edge or an edge with
    /// the same ends, kind and distance already exists (the first
    /// delay found wins).
    fn push(&mut self, from: usize, to: usize, kind: DepKind, distance: u32, delay: u32) {
        if from == to && distance == 0 {
            return;
        }
        if self
            .succs_of(from)
            .any(|e| e.to == to && e.kind == kind && e.distance == distance)
        {
            return;
        }
        self.edges.push(MDep {
            from,
            to,
            kind,
            distance,
            delay,
        });
        self.succs.append(from);
        self.preds.append(to);
    }
}

/// The physical register read by an operand, if any.
fn operand_reg(o: VOperand) -> Option<Reg> {
    match o {
        VOperand::Phys(r) => Some(r),
        VOperand::Virt(_) => panic!("mdeps requires allocated code"),
        _ => None,
    }
}

/// Registers read by `op`: its register operands in order, then, for
/// [`Opcode::SelT`], its destination (the old value survives a false
/// condition).
fn uses(op: &VOp) -> [Option<Reg>; 3] {
    let sel_dst = match (op.opcode, op.dst) {
        (Opcode::SelT, crate::vcode::VDest::Phys(d)) => Some(d),
        _ => None,
    };
    [
        op.a.and_then(operand_reg),
        op.b.and_then(operand_reg),
        sel_dst,
    ]
}

/// Register written by `op`.
fn def(op: &VOp) -> Option<Reg> {
    match op.dst {
        crate::vcode::VDest::Phys(r) => Some(r),
        crate::vcode::VDest::Virt(_) => panic!("mdeps requires allocated code"),
        crate::vcode::VDest::None => None,
    }
}

fn delay_for(kind: DepKind, from_op: &VOp) -> u32 {
    match kind {
        DepKind::Flow => from_op.opcode.timing().latency,
        DepKind::Anti => 0,
        DepKind::Output | DepKind::Order => 1,
    }
}

/// Finds the induction register of an allocated self-loop block:
/// `iadd t, i, #c` (or `isub`) followed by `mov i, t`, or directly
/// `iadd i, i, #c`.
pub fn find_induction_phys(block: &VBlock) -> Option<(Reg, i64)> {
    induction_deltas(block).map(|(r, net, _)| (r, net))
}

/// Map of registers holding induction-chain values: `r -> (root,
/// delta)` meaning `r = root@entry + delta`.
pub type ChainMap = std::collections::HashMap<Reg, (Reg, i64)>;

/// Symbolic induction analysis: expresses every register that is a
/// ±constant chain from some block-entry value as `(root, delta)`.
/// Returns the unique register `r` whose final value is `r@entry + net`
/// with `net ≠ 0`, plus the map of all registers holding chain values
/// (used to validate the exit compare).
pub fn induction_deltas(block: &VBlock) -> Option<(Reg, i64, ChainMap)> {
    use std::collections::{HashMap, HashSet};
    let mut expr: HashMap<Reg, (Reg, i64)> = HashMap::new();
    let mut defined: HashSet<Reg> = HashSet::new();
    for op in &block.ops {
        let d = def(op);
        match (op.opcode, d, op.a, op.b) {
            (
                Opcode::IAdd | Opcode::ISub,
                Some(d),
                Some(VOperand::Phys(s)),
                Some(VOperand::ImmI(c)),
            ) => {
                let c = if op.opcode == Opcode::IAdd {
                    c as i64
                } else {
                    -(c as i64)
                };
                let entry = if let Some(&(root, delta)) = expr.get(&s) {
                    Some((root, delta + c))
                } else if !defined.contains(&s) {
                    Some((s, c))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(d, e);
                    }
                    None => {
                        expr.remove(&d);
                    }
                }
                defined.insert(d);
            }
            (Opcode::Move, Some(d), Some(VOperand::Phys(s)), None) => {
                let entry = if let Some(&e) = expr.get(&s) {
                    Some(e)
                } else if !defined.contains(&s) {
                    Some((s, 0))
                } else {
                    None
                };
                match entry {
                    Some(e) => {
                        expr.insert(d, e);
                    }
                    None => {
                        expr.remove(&d);
                    }
                }
                defined.insert(d);
            }
            (_, Some(d), _, _) => {
                expr.remove(&d);
                defined.insert(d);
            }
            _ => {}
        }
    }
    // The induction register: redefined as a nonzero chain from itself.
    let mut candidates: Vec<(Reg, i64)> = expr
        .iter()
        .filter(|(r, (root, delta))| *r == root && *delta != 0 && defined.contains(r))
        .map(|(r, (_, delta))| (*r, *delta))
        .collect();
    candidates.sort_by_key(|(r, _)| r.0);
    if candidates.len() != 1 {
        return None;
    }
    let (reg, net) = candidates[0];
    Some((reg, net, expr))
}

/// An address recognized as `coeff·induction + base + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MAffine {
    coeff: i64,
    /// The symbolic `Addr` base, if one participates.
    base: Option<u32>,
    offset: i64,
}

fn maffine(
    block: &VBlock,
    defs: &[Option<Reg>],
    pos: usize,
    o: VOperand,
    induction: Option<(Reg, i64)>,
    depth: usize,
) -> Option<MAffine> {
    if depth > 16 {
        return None;
    }
    match o {
        VOperand::ImmI(c) => Some(MAffine {
            coeff: 0,
            base: None,
            offset: c as i64,
        }),
        VOperand::Addr(b) => Some(MAffine {
            coeff: 0,
            base: Some(b),
            offset: 0,
        }),
        VOperand::ImmF(_) => None,
        VOperand::Virt(_) => panic!("mdeps requires allocated code"),
        VOperand::Phys(r) => {
            if let Some((ind, _)) = induction {
                if r == ind {
                    let updated_before = defs[..pos].contains(&Some(r));
                    return if updated_before {
                        None
                    } else {
                        Some(MAffine {
                            coeff: 1,
                            base: None,
                            offset: 0,
                        })
                    };
                }
            }
            let def_pos = defs[..pos].iter().rposition(|&d| d == Some(r))?;
            let dop = &block.ops[def_pos];
            match dop.opcode {
                Opcode::Move => maffine(block, defs, def_pos, dop.a?, induction, depth + 1),
                Opcode::IAdd | Opcode::ISub => {
                    let fa = maffine(block, defs, def_pos, dop.a?, induction, depth + 1)?;
                    let fb = maffine(block, defs, def_pos, dop.b?, induction, depth + 1)?;
                    if fa.base.is_some() && fb.base.is_some() {
                        return None;
                    }
                    let base = fa.base.or(fb.base);
                    Some(if dop.opcode == Opcode::IAdd {
                        MAffine {
                            coeff: fa.coeff + fb.coeff,
                            base,
                            offset: fa.offset + fb.offset,
                        }
                    } else {
                        if fb.base.is_some() {
                            return None; // base subtracted — not an address
                        }
                        MAffine {
                            coeff: fa.coeff - fb.coeff,
                            base,
                            offset: fa.offset - fb.offset,
                        }
                    })
                }
                Opcode::IMul => {
                    let fa = maffine(block, defs, def_pos, dop.a?, induction, depth + 1)?;
                    let fb = maffine(block, defs, def_pos, dop.b?, induction, depth + 1)?;
                    if fa.base.is_some() || fb.base.is_some() {
                        return None;
                    }
                    if fa.coeff == 0 {
                        Some(MAffine {
                            coeff: fa.offset * fb.coeff,
                            base: None,
                            offset: fa.offset * fb.offset,
                        })
                    } else if fb.coeff == 0 {
                        Some(MAffine {
                            coeff: fb.offset * fa.coeff,
                            base: None,
                            offset: fb.offset * fa.offset,
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemDep {
    None,
    Distance(u32),
    Unknown,
}

fn mem_test(a: Option<MAffine>, b: Option<MAffine>, step: i64, is_loop: bool) -> MemDep {
    match (a, b) {
        (Some(x), Some(y)) => {
            if x.base != y.base {
                // Disjoint storage regions.
                return MemDep::None;
            }
            if x.coeff == y.coeff {
                if x.coeff == 0 {
                    if x.offset == y.offset {
                        MemDep::Distance(0)
                    } else {
                        MemDep::None
                    }
                } else {
                    let denom = x.coeff * step;
                    if denom == 0 {
                        return MemDep::Unknown;
                    }
                    let diff = x.offset - y.offset;
                    if diff % denom != 0 {
                        MemDep::None
                    } else {
                        let d = diff / denom;
                        if d == 0 {
                            MemDep::Distance(0)
                        } else if !is_loop || d < 0 {
                            MemDep::None
                        } else {
                            MemDep::Distance(d.min(u32::MAX as i64) as u32)
                        }
                    }
                }
            } else {
                MemDep::Unknown
            }
        }
        _ => MemDep::Unknown,
    }
}

/// Builds the machine-level dependence graph of an allocated block.
///
/// # Panics
///
/// Panics if the block still contains virtual registers.
pub fn mdep_graph(block: &VBlock, is_loop: bool) -> MDepGraph {
    let n = block.ops.len();
    let mut g = MDepGraph::new(n);
    let induction = if is_loop {
        find_induction_phys(block)
    } else {
        None
    };
    let reads: Vec<[Option<Reg>; 3]> = block.ops.iter().map(uses).collect();
    let defs: Vec<Option<Reg>> = block.ops.iter().map(def).collect();

    // Register dependences.
    for j in 0..n {
        for u in reads[j].into_iter().flatten() {
            match defs[..j].iter().rposition(|&d| d == Some(u)) {
                Some(i) => {
                    let d = delay_for(DepKind::Flow, &block.ops[i]);
                    g.push(i, j, DepKind::Flow, 0, d);
                }
                None => {
                    if is_loop {
                        // The value read comes from the previous
                        // iteration, i.e. the block's *last* def.
                        if let Some(i) = defs.iter().rposition(|&d| d == Some(u)) {
                            if i >= j {
                                let d = delay_for(DepKind::Flow, &block.ops[i]);
                                g.push(i, j, DepKind::Flow, 1, d);
                            }
                        }
                    }
                }
            }
        }
        if let Some(d) = defs[j] {
            for i in 0..j {
                if reads[i].contains(&Some(d)) {
                    g.push(i, j, DepKind::Anti, 0, 0);
                }
                if defs[i] == Some(d) {
                    g.push(i, j, DepKind::Output, 0, 1);
                }
            }
            if is_loop {
                // Loop-carried anti: uses later in the block read this
                // iteration's value before next iteration's write.
                for (i, r) in reads.iter().enumerate().skip(j + 1) {
                    if r.contains(&Some(d)) {
                        g.push(i, j, DepKind::Anti, 1, 0);
                    }
                }
                // Loop-carried outputs: to itself, and from any later
                // writer of the same register back to this one (keeps
                // instances from colliding in the same kernel cycle).
                g.push(j, j, DepKind::Output, 1, 1);
                for (i, &di) in defs.iter().enumerate().skip(j + 1) {
                    if di == Some(d) {
                        g.push(i, j, DepKind::Output, 1, 1);
                    }
                }
            }
        }
    }

    // Memory dependences: each access with its address, recognized once.
    let accesses: Vec<(usize, Option<MAffine>, bool)> = block
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| {
            let write = match op.opcode {
                Opcode::Load => false,
                Opcode::Store => true,
                _ => return None,
            };
            let addr = op.a.expect("memory op address");
            Some((i, maffine(block, &defs, i, addr, induction, 0), write))
        })
        .collect();
    let step = induction.map(|(_, s)| s).unwrap_or(1);
    for (x, &(i, fa, wr_i)) in accesses.iter().enumerate() {
        for &(j, fb, wr_j) in accesses.iter().skip(x + 1) {
            if !wr_i && !wr_j {
                continue;
            }
            g.dep_tests += 1;
            let kind = match (wr_i, wr_j) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                _ => DepKind::Output,
            };
            let rkind = match (wr_j, wr_i) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                _ => DepKind::Output,
            };
            match mem_test(fa, fb, step, is_loop) {
                MemDep::None => {
                    if is_loop {
                        if let MemDep::Distance(d) = mem_test(fb, fa, step, true) {
                            if d > 0 {
                                let delay = delay_for(rkind, &block.ops[j]);
                                g.push(j, i, rkind, d, delay);
                            }
                        }
                    }
                }
                MemDep::Distance(d) => {
                    let delay = delay_for(kind, &block.ops[i]);
                    g.push(i, j, kind, d, delay);
                }
                MemDep::Unknown => {
                    let delay = delay_for(kind, &block.ops[i]);
                    g.push(i, j, kind, 0, delay);
                    if is_loop {
                        let delay = delay_for(rkind, &block.ops[j]);
                        g.push(j, i, rkind, 1, delay);
                    }
                }
            }
        }
    }

    // Queue ordering.
    let qops: Vec<(usize, &VOp)> = block
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.opcode, Opcode::Send(_) | Opcode::Recv(_)))
        .collect();
    for (x, &(i, op_i)) in qops.iter().enumerate() {
        for &(j, op_j) in qops.iter().skip(x + 1) {
            let ordered = match (op_i.opcode, op_j.opcode) {
                (Opcode::Send(d1), Opcode::Send(d2)) => d1 == d2,
                (Opcode::Recv(d1), Opcode::Recv(d2)) => d1 == d2,
                _ => false,
            };
            if ordered {
                g.push(i, j, DepKind::Order, 0, 1);
                if is_loop {
                    g.push(j, i, DepKind::Order, 1, 1);
                }
            }
        }
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::{VDest, VTerm};
    use warp_target::isa::QueueDir;

    fn r(n: u16) -> VOperand {
        VOperand::Phys(Reg(n))
    }

    fn block(ops: Vec<VOp>) -> VBlock {
        VBlock {
            ops,
            term: VTerm::Return,
            is_pipeline_loop: false,
        }
    }

    fn op2(opcode: Opcode, dst: u16, a: VOperand, b: VOperand) -> VOp {
        VOp {
            opcode,
            dst: VDest::Phys(Reg(dst)),
            a: Some(a),
            b: Some(b),
        }
    }

    #[test]
    fn flow_dep_with_latency() {
        let b = block(vec![
            op2(Opcode::FAdd, 12, r(13), r(14)),
            op2(Opcode::FMul, 15, r(12), r(14)),
        ]);
        let g = mdep_graph(&b, false);
        let e = g.edges.iter().find(|e| e.from == 0 && e.to == 1).unwrap();
        assert_eq!(e.kind, DepKind::Flow);
        assert_eq!(e.delay, 5);
    }

    #[test]
    fn anti_dep_zero_delay() {
        let b = block(vec![
            op2(Opcode::IAdd, 12, r(13), r(14)),
            op2(Opcode::IAdd, 13, r(15), r(15)),
        ]);
        let g = mdep_graph(&b, false);
        let e = g
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Anti)
            .unwrap();
        assert_eq!(e.delay, 0);
    }

    #[test]
    fn loop_carried_register_flow() {
        // acc := acc + x  (acc = r12): carried flow from the write to
        // next iteration's read.
        let b = block(vec![op2(Opcode::FAdd, 12, r(12), r(13))]);
        let g = mdep_graph(&b, true);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 0 && e.kind == DepKind::Flow && e.distance == 1));
        // And a carried output-dep on itself.
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 0 && e.kind == DepKind::Output && e.distance == 1));
    }

    #[test]
    fn memory_different_bases_independent() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Store,
                dst: VDest::None,
                a: Some(VOperand::Addr(0)),
                b: Some(r(12)),
            },
            VOp {
                opcode: Opcode::Load,
                dst: VDest::Phys(Reg(13)),
                a: Some(VOperand::Addr(8)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        assert!(
            !g.edges.iter().any(|e| e.from == 0 && e.to == 1),
            "{:?}",
            g.edges
        );
        assert_eq!(g.dep_tests, 1);
    }

    #[test]
    fn memory_same_address_flow() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Store,
                dst: VDest::None,
                a: Some(VOperand::Addr(4)),
                b: Some(r(12)),
            },
            VOp {
                opcode: Opcode::Load,
                dst: VDest::Phys(Reg(13)),
                a: Some(VOperand::Addr(4)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        let e = g.edges.iter().find(|e| e.from == 0 && e.to == 1).unwrap();
        assert_eq!(e.kind, DepKind::Flow);
        assert_eq!(e.delay, 1);
    }

    #[test]
    fn induction_recognized_on_phys() {
        // iadd r13, r12, #1 ; mov r12, r13 (self-loop)
        let b = VBlock {
            ops: vec![
                op2(Opcode::IAdd, 13, r(12), VOperand::ImmI(1)),
                VOp {
                    opcode: Opcode::Move,
                    dst: VDest::Phys(Reg(12)),
                    a: Some(r(13)),
                    b: None,
                },
            ],
            term: VTerm::Branch {
                cond: r(14),
                then_blk: 0,
                else_blk: 1,
            },
            is_pipeline_loop: true,
        };
        let (reg, step) = find_induction_phys(&b).unwrap();
        assert_eq!(reg, Reg(12));
        assert_eq!(step, 1);
    }

    #[test]
    fn strided_array_accesses_in_loop() {
        // Loop: addr := i + base; store addr; iadd i,i,1
        let b = VBlock {
            ops: vec![
                op2(Opcode::IAdd, 13, r(12), VOperand::Addr(0)),
                VOp {
                    opcode: Opcode::Store,
                    dst: VDest::None,
                    a: Some(r(13)),
                    b: Some(r(14)),
                },
                op2(Opcode::IAdd, 12, r(12), VOperand::ImmI(1)),
            ],
            term: VTerm::Branch {
                cond: r(15),
                then_blk: 0,
                else_blk: 1,
            },
            is_pipeline_loop: true,
        };
        let g = mdep_graph(&b, true);
        // Store to v[i] each iteration: no self memory dep (distinct
        // addresses), so no Output edge from the store to itself.
        assert!(
            !g.edges
                .iter()
                .any(|e| e.from == 1 && e.to == 1 && e.kind == DepKind::Output && e.distance > 0),
            "{:?}",
            g.edges
        );
    }

    /// Every block of the Figure 6 module (`S_8` of `f_medium`) after
    /// register allocation.
    fn fig6_blocks() -> Vec<VBlock> {
        use warp_workload::{synthetic_program, FunctionSize};
        let checked = warp_lang::phase1(&synthetic_program(FunctionSize::Medium, 8)).unwrap();
        let mut blocks = Vec::new();
        for (si, section) in checked.module.sections.iter().enumerate() {
            for (fi, f) in section.functions.iter().enumerate() {
                let r = warp_ir::phase2::phase2(
                    f,
                    &checked.sections[si].symbol_tables[fi],
                    &checked.sections[si].signatures,
                )
                .unwrap();
                let mut vf = crate::select::select(&r.ir, &r.loops.pipelinable_blocks());
                crate::regalloc::allocate(&mut vf, &Default::default()).unwrap();
                blocks.extend(vf.blocks);
            }
        }
        blocks
    }

    #[test]
    fn adjacency_matches_edge_scan_on_fig6() {
        let blocks = fig6_blocks();
        assert!(blocks.iter().any(|b| b.is_pipeline_loop));
        for block in &blocks {
            for is_loop in [false, block.is_pipeline_loop] {
                let g = mdep_graph(block, is_loop);
                for i in 0..g.n {
                    let preds: Vec<&MDep> = g.preds_of(i).collect();
                    let scan: Vec<&MDep> = g.edges.iter().filter(|e| e.to == i).collect();
                    assert_eq!(preds, scan, "preds of op {i}");
                    let succs: Vec<&MDep> = g.succs_of(i).collect();
                    let scan: Vec<&MDep> = g.edges.iter().filter(|e| e.from == i).collect();
                    assert_eq!(succs, scan, "succs of op {i}");
                }
            }
        }
    }

    #[test]
    fn queue_order_preserved() {
        let b = block(vec![
            VOp {
                opcode: Opcode::Send(QueueDir::Right),
                dst: VDest::None,
                a: Some(r(12)),
                b: None,
            },
            VOp {
                opcode: Opcode::Send(QueueDir::Right),
                dst: VDest::None,
                a: Some(r(13)),
                b: None,
            },
        ]);
        let g = mdep_graph(&b, false);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Order));
    }
}
