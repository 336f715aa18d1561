//! The tracing-JIT engine model.
//!
//! MiniPy's JIT follows the behavioural contour of meta-tracing VMs (PyPy):
//!
//! 1. **Profiling** — every loop back-edge bumps a counter (cheap, but not
//!    free: the cost model charges [`crate::cost::CostModel::profile_backedge`]).
//! 2. **Recording** — once a back-edge crosses the hot threshold, the next
//!    loop iteration runs in recording mode: it executes normally (at
//!    interpreter cost) while capturing the operand-type profile of every
//!    arithmetic opcode in the loop region.
//! 3. **Compilation** — when the back-edge fires again, the region
//!    `[loop head, back-edge]` is marked compiled; a compile cost proportional
//!    to the region size is charged. Subsequent execution of those opcodes
//!    runs at JIT cost.
//! 4. **Guards & deoptimization** — compiled arithmetic opcodes check their
//!    operand types against the recorded profile. A mismatch costs a deopt
//!    penalty and widens the guard; repeated failures blacklist the region,
//!    returning it to the interpreter forever — the mechanism behind
//!    "no steady state" benchmarks.

use serde::{Deserialize, Serialize};

/// Default number of back-edge executions before a loop is considered hot.
/// PyPy's default trace threshold is 1039; ours is lower because MiniPy
/// workloads are smaller.
pub const DEFAULT_HOT_THRESHOLD: u32 = 500;

/// Guard failures tolerated before a region is blacklisted.
pub const MAX_GUARD_FAILURES: u32 = 3;

/// Which compilation strategies the JIT uses — the axis real Python JITs
/// differ on: PyPy traces loops, Cinder/Pyston compile methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum JitMode {
    /// Loop tracing *and* method-at-a-time function compilation.
    #[default]
    Full,
    /// Loop tracing only (a pure meta-tracing VM; call-dominated code stays
    /// interpreted).
    LoopsOnly,
    /// Whole-function compilation only (a method JIT; loops inside cold
    /// functions stay interpreted).
    FunctionsOnly,
}

impl JitMode {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            JitMode::Full => "full",
            JitMode::LoopsOnly => "loops",
            JitMode::FunctionsOnly => "methods",
        }
    }
}

/// Configuration of the JIT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitConfig {
    /// Back-edge count that triggers recording.
    pub hot_threshold: u32,
    /// Guard failures tolerated before blacklisting.
    pub max_guard_failures: u32,
    /// Which compilation strategies are enabled.
    pub mode: JitMode,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            hot_threshold: DEFAULT_HOT_THRESHOLD,
            max_guard_failures: MAX_GUARD_FAILURES,
            mode: JitMode::Full,
        }
    }
}

impl JitConfig {
    /// A loops-only (pure tracing) configuration.
    pub fn loops_only() -> Self {
        JitConfig {
            mode: JitMode::LoopsOnly,
            ..JitConfig::default()
        }
    }

    /// A functions-only (method JIT) configuration.
    pub fn functions_only() -> Self {
        JitConfig {
            mode: JitMode::FunctionsOnly,
            ..JitConfig::default()
        }
    }
}

/// What happened on a back-edge, so the interpreter can charge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackedgeEvent {
    /// Nothing special; profile cost only.
    Cold,
    /// The loop just became hot; recording starts with the next iteration.
    StartRecording,
    /// Recording finished and the region was compiled; contains the number of
    /// bytecodes in the compiled region (for compile costing).
    Compiled {
        /// Bytecodes in the region.
        ops: usize,
    },
}

/// Outcome of a type-guard check in compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOutcome {
    /// Types matched the trace.
    Pass,
    /// Guard failed; the guard was widened and the region stays compiled.
    Deopt,
    /// Guard failed once too often; the region was blacklisted.
    Blacklisted,
}

#[derive(Debug, Clone)]
struct Recording {
    head: u32,
    backedge_from: u32,
    /// Operand-type masks of the ops `head..=backedge_from`, indexed by
    /// `pc - head`.
    types: Vec<u16>,
}

impl Recording {
    fn covers(&self, pc: u32) -> bool {
        pc >= self.head && pc <= self.backedge_from
    }
}

#[derive(Debug, Clone)]
struct Region {
    head: u32,
    end: u32,
    fail_count: u32,
}

/// Per-code JIT bookkeeping. Every table is dense, indexed by pc, so the
/// hot paths (`check_guard` on each compiled arithmetic op, `on_backedge`
/// on each loop iteration) index a `Vec` instead of hashing.
#[derive(Debug, Clone)]
struct CodeJit {
    /// Per-op: back-edges seen with this op as the loop head.
    backedge_counts: Vec<u32>,
    /// Per-op: 0 = interpreted, otherwise region index + 1.
    compiled: Vec<u32>,
    /// Per-op: the guard mask of the region that claimed the op (0 = no
    /// guard). Written whenever a region claims the op and read only while
    /// `compiled[pc] != 0`, so a stale mask left by a blacklisted region is
    /// never seen.
    guards: Vec<u16>,
    recording: Option<Recording>,
    regions: Vec<Region>,
    /// Per-op: the loop headed by this op is blacklisted.
    blacklisted: Vec<bool>,
    /// Number of `true` entries in `blacklisted`.
    blacklisted_heads: usize,
    /// Function-entry profile count (method-at-a-time compilation).
    entry_count: u32,
    /// Whole-function compilation already happened.
    function_compiled: bool,
}

impl CodeJit {
    fn new(ops: usize) -> Self {
        CodeJit {
            backedge_counts: vec![0; ops],
            compiled: vec![0; ops],
            guards: vec![0; ops],
            recording: None,
            regions: Vec::new(),
            blacklisted: vec![false; ops],
            blacklisted_heads: 0,
            entry_count: 0,
            function_compiled: false,
        }
    }

    /// Marks the loop headed at `head` as given up on; a head is counted
    /// once however often it is blacklisted.
    fn blacklist(&mut self, head: u32) {
        let flag = &mut self.blacklisted[head as usize];
        if !*flag {
            *flag = true;
            self.blacklisted_heads += 1;
        }
    }
}

/// Whole-program JIT state, parallel to the program's code objects.
#[derive(Debug, Clone)]
pub struct JitState {
    config: JitConfig,
    codes: Vec<CodeJit>,
}

impl JitState {
    /// Creates JIT state for a program with the given per-code op counts.
    pub fn new(config: JitConfig, code_op_counts: &[usize]) -> Self {
        let codes = code_op_counts.iter().map(|&n| CodeJit::new(n)).collect();
        JitState { config, codes }
    }

    /// True if the opcode at `(code_id, pc)` runs at JIT cost.
    #[inline]
    pub fn is_compiled(&self, code_id: usize, pc: usize) -> bool {
        self.codes[code_id]
            .compiled
            .get(pc)
            .map(|&r| r != 0)
            .unwrap_or(false)
    }

    /// True if a recording is active for `code_id` and `pc` lies inside the
    /// region being recorded (the interpreter then captures type profiles).
    #[inline]
    pub fn is_recording(&self, code_id: usize, pc: usize) -> bool {
        match &self.codes[code_id].recording {
            Some(r) => r.covers(pc as u32),
            None => false,
        }
    }

    /// Captures an operand-type observation while recording.
    pub fn record_types(&mut self, code_id: usize, pc: usize, mask: u16) {
        if let Some(r) = &mut self.codes[code_id].recording {
            if r.covers(pc as u32) {
                r.types[pc - r.head as usize] |= mask;
            }
        }
    }

    /// Handles a back-edge from `from_pc` to `target_pc`.
    pub fn on_backedge(
        &mut self,
        code_id: usize,
        from_pc: usize,
        target_pc: usize,
    ) -> BackedgeEvent {
        if self.config.mode == JitMode::FunctionsOnly {
            return BackedgeEvent::Cold;
        }
        let cfg = self.config;
        let cj = &mut self.codes[code_id];
        let (from, target) = (from_pc as u32, target_pc as u32);

        // Finish an active recording whose back-edge just fired.
        if let Some(rec) = &cj.recording {
            if rec.backedge_from == from && rec.head == target {
                let rec = cj.recording.take().expect("checked above");
                let region_idx = cj.regions.len() as u32 + 1;
                let mut ops = 0usize;
                for (pc, &mask) in (rec.head as usize..).zip(&rec.types) {
                    if cj.compiled[pc] == 0 {
                        cj.compiled[pc] = region_idx;
                        cj.guards[pc] = mask;
                        ops += 1;
                    }
                }
                cj.regions.push(Region {
                    head: rec.head,
                    end: rec.backedge_from,
                    fail_count: 0,
                });
                return BackedgeEvent::Compiled { ops };
            }
        }

        // Already compiled or given up on?
        if cj.compiled[target_pc] != 0 || cj.blacklisted[target_pc] {
            return BackedgeEvent::Cold;
        }

        let count = &mut cj.backedge_counts[target_pc];
        *count += 1;
        if *count >= cfg.hot_threshold {
            // Displace any stalled recording (its loop exited mid-record).
            cj.recording = Some(Recording {
                head: target,
                backedge_from: from,
                types: vec![0; (from_pc + 1).saturating_sub(target_pc)],
            });
            *count = 0;
            return BackedgeEvent::StartRecording;
        }
        BackedgeEvent::Cold
    }

    /// Checks the type guard for a compiled arithmetic opcode.
    pub fn check_guard(&mut self, code_id: usize, pc: usize, mask: u16) -> GuardOutcome {
        let max_fails = self.config.max_guard_failures;
        let cj = &mut self.codes[code_id];
        let region_ref = cj.compiled[pc];
        if region_ref == 0 {
            return GuardOutcome::Pass;
        }
        let expected = cj.guards[pc];
        if expected == 0 || (mask & !expected) == 0 {
            return GuardOutcome::Pass;
        }
        // Guard failure: widen, maybe blacklist.
        cj.guards[pc] |= mask;
        let region = &mut cj.regions[(region_ref - 1) as usize];
        region.fail_count += 1;
        if region.fail_count > max_fails {
            let (head, end) = (region.head, region.end);
            cj.blacklist(head);
            for p in head..=end {
                if cj.compiled[p as usize] == region_ref {
                    cj.compiled[p as usize] = 0;
                }
            }
            GuardOutcome::Blacklisted
        } else {
            GuardOutcome::Deopt
        }
    }

    /// Handles a function entry (method-at-a-time compilation path, the
    /// complement to loop tracing: call-dominated code like recursive
    /// workloads has no hot back-edges, but its functions get hot).
    ///
    /// Returns the number of newly compiled ops when the entry count crosses
    /// the hot threshold, `None` otherwise. Whole-function regions carry no
    /// type profile, so they never deoptimize (loop regions inside them keep
    /// their guards).
    pub fn on_function_entry(&mut self, code_id: usize) -> Option<usize> {
        if self.config.mode == JitMode::LoopsOnly {
            return None;
        }
        let threshold = self.config.hot_threshold;
        let cj = &mut self.codes[code_id];
        if cj.function_compiled {
            return None;
        }
        cj.entry_count += 1;
        if cj.entry_count < threshold {
            return None;
        }
        cj.function_compiled = true;
        let region_idx = cj.regions.len() as u32 + 1;
        let mut ops = 0usize;
        for (slot, guard) in cj.compiled.iter_mut().zip(&mut cj.guards) {
            if *slot == 0 {
                *slot = region_idx;
                *guard = 0;
                ops += 1;
            }
        }
        if ops == 0 {
            return None;
        }
        cj.regions.push(Region {
            head: 0,
            end: cj.compiled.len().saturating_sub(1) as u32,
            fail_count: 0,
        });
        Some(ops)
    }

    /// Number of regions ever compiled in the whole program.
    pub fn compiled_regions(&self) -> usize {
        self.codes.iter().map(|c| c.regions.len()).sum()
    }

    /// Number of blacklisted loop heads in the whole program.
    pub fn blacklisted_count(&self) -> usize {
        self.codes.iter().map(|c| c.blacklisted_heads).sum()
    }

    /// The configured hot threshold.
    pub fn config(&self) -> JitConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::TypeTag;

    fn jit_for(ops: usize) -> JitState {
        JitState::new(
            JitConfig {
                hot_threshold: 3,
                max_guard_failures: 2,
                mode: JitMode::Full,
            },
            &[ops],
        )
    }

    #[test]
    fn cold_loop_stays_interpreted() {
        let mut j = jit_for(10);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert!(!j.is_compiled(0, 5));
    }

    #[test]
    fn hot_loop_records_then_compiles() {
        let mut j = jit_for(10);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::StartRecording);
        assert!(j.is_recording(0, 5));
        assert!(!j.is_recording(0, 9));
        j.record_types(0, 5, TypeTag::Int.bit());
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Compiled { ops: 7 });
        assert!(j.is_compiled(0, 2));
        assert!(j.is_compiled(0, 8));
        assert!(!j.is_compiled(0, 9));
        assert_eq!(j.compiled_regions(), 1);
    }

    #[test]
    fn guards_pass_on_recorded_types() {
        let mut j = jit_for(10);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2);
        }
        j.record_types(0, 5, TypeTag::Int.bit());
        j.on_backedge(0, 8, 2);
        assert_eq!(j.check_guard(0, 5, TypeTag::Int.bit()), GuardOutcome::Pass);
        // Unprofiled pc in region: no guard.
        assert_eq!(
            j.check_guard(0, 4, TypeTag::Float.bit()),
            GuardOutcome::Pass
        );
    }

    #[test]
    fn guard_failure_widens_then_blacklists() {
        let mut j = jit_for(10);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2);
        }
        j.record_types(0, 5, TypeTag::Int.bit());
        j.on_backedge(0, 8, 2);
        // First float: deopt + widen.
        assert_eq!(
            j.check_guard(0, 5, TypeTag::Float.bit()),
            GuardOutcome::Deopt
        );
        // Float now accepted.
        assert_eq!(
            j.check_guard(0, 5, TypeTag::Float.bit()),
            GuardOutcome::Pass
        );
        // New types keep failing until blacklist.
        assert_eq!(j.check_guard(0, 5, TypeTag::Str.bit()), GuardOutcome::Deopt);
        assert_eq!(
            j.check_guard(0, 5, TypeTag::List.bit()),
            GuardOutcome::Blacklisted
        );
        assert!(!j.is_compiled(0, 5));
        assert_eq!(j.blacklisted_count(), 1);
        // Blacklisted loops never recompile.
        for _ in 0..10 {
            assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        }
    }

    #[test]
    fn nested_region_does_not_steal_compiled_ops() {
        let mut j = jit_for(20);
        // Inner loop [5..=10] compiles first.
        for _ in 0..3 {
            j.on_backedge(0, 10, 5);
        }
        assert_eq!(j.on_backedge(0, 10, 5), BackedgeEvent::Compiled { ops: 6 });
        // Outer loop [2..=15] compiles around it; only new ops counted.
        for _ in 0..3 {
            j.on_backedge(0, 15, 2);
        }
        match j.on_backedge(0, 15, 2) {
            BackedgeEvent::Compiled { ops } => assert_eq!(ops, 14 - 6),
            other => panic!("unexpected {other:?}"),
        }
        assert!(j.is_compiled(0, 3));
        assert!(j.is_compiled(0, 7));
    }

    #[test]
    fn loops_only_mode_never_compiles_functions() {
        let mut j = JitState::new(
            JitConfig {
                hot_threshold: 2,
                max_guard_failures: 2,
                mode: JitMode::LoopsOnly,
            },
            &[10],
        );
        for _ in 0..10 {
            assert_eq!(j.on_function_entry(0), None);
        }
        // Loops still work.
        j.on_backedge(0, 8, 2);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::StartRecording);
    }

    #[test]
    fn functions_only_mode_never_traces_loops() {
        let mut j = JitState::new(
            JitConfig {
                hot_threshold: 2,
                max_guard_failures: 2,
                mode: JitMode::FunctionsOnly,
            },
            &[10],
        );
        for _ in 0..10 {
            assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        }
        // Functions still compile.
        assert_eq!(j.on_function_entry(0), None);
        assert_eq!(j.on_function_entry(0), Some(10));
    }

    #[test]
    fn mode_names() {
        assert_eq!(JitMode::Full.name(), "full");
        assert_eq!(JitMode::LoopsOnly.name(), "loops");
        assert_eq!(JitMode::FunctionsOnly.name(), "methods");
    }

    /// The map-keyed bookkeeping the dense per-pc tables replaced, kept as
    /// the reference model. Ordered maps stand in for the original hash
    /// maps: nothing iterates them, so the behaviour is the same.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};

        use super::{BackedgeEvent, GuardOutcome, JitConfig, JitMode};

        struct Recording {
            head: u32,
            backedge_from: u32,
            types: BTreeMap<u32, u16>,
        }

        struct Region {
            head: u32,
            end: u32,
            fail_count: u32,
            types: BTreeMap<u32, u16>,
        }

        #[derive(Default)]
        struct CodeJit {
            backedge_counts: BTreeMap<u32, u32>,
            compiled: Vec<u32>,
            recording: Option<Recording>,
            regions: Vec<Region>,
            blacklisted_heads: BTreeSet<u32>,
            entry_count: u32,
            function_compiled: bool,
        }

        pub(super) struct MapJit {
            config: JitConfig,
            codes: Vec<CodeJit>,
        }

        impl MapJit {
            pub(super) fn new(config: JitConfig, code_op_counts: &[usize]) -> Self {
                let codes = code_op_counts
                    .iter()
                    .map(|&n| CodeJit {
                        compiled: vec![0; n],
                        ..CodeJit::default()
                    })
                    .collect();
                MapJit { config, codes }
            }

            pub(super) fn is_compiled(&self, code_id: usize, pc: usize) -> bool {
                self.codes[code_id].compiled[pc] != 0
            }

            pub(super) fn is_recording(&self, code_id: usize, pc: usize) -> bool {
                match &self.codes[code_id].recording {
                    Some(r) => (pc as u32) >= r.head && (pc as u32) <= r.backedge_from,
                    None => false,
                }
            }

            pub(super) fn record_types(&mut self, code_id: usize, pc: usize, mask: u16) {
                if let Some(r) = &mut self.codes[code_id].recording {
                    if (pc as u32) >= r.head && (pc as u32) <= r.backedge_from {
                        *r.types.entry(pc as u32).or_insert(0) |= mask;
                    }
                }
            }

            pub(super) fn on_backedge(
                &mut self,
                code_id: usize,
                from_pc: usize,
                target_pc: usize,
            ) -> BackedgeEvent {
                if self.config.mode == JitMode::FunctionsOnly {
                    return BackedgeEvent::Cold;
                }
                let cfg = self.config;
                let cj = &mut self.codes[code_id];
                let (from, target) = (from_pc as u32, target_pc as u32);
                if let Some(rec) = &cj.recording {
                    if rec.backedge_from == from && rec.head == target {
                        let rec = cj.recording.take().expect("checked above");
                        let region_idx = cj.regions.len() as u32 + 1;
                        let mut ops = 0usize;
                        for pc in rec.head..=rec.backedge_from {
                            let slot = &mut cj.compiled[pc as usize];
                            if *slot == 0 {
                                *slot = region_idx;
                                ops += 1;
                            }
                        }
                        cj.regions.push(Region {
                            head: rec.head,
                            end: rec.backedge_from,
                            fail_count: 0,
                            types: rec.types,
                        });
                        return BackedgeEvent::Compiled { ops };
                    }
                }
                if cj.compiled[target_pc] != 0 || cj.blacklisted_heads.contains(&target) {
                    return BackedgeEvent::Cold;
                }
                let count = cj.backedge_counts.entry(target).or_insert(0);
                *count += 1;
                if *count >= cfg.hot_threshold {
                    cj.recording = Some(Recording {
                        head: target,
                        backedge_from: from,
                        types: BTreeMap::new(),
                    });
                    *count = 0;
                    return BackedgeEvent::StartRecording;
                }
                BackedgeEvent::Cold
            }

            pub(super) fn check_guard(
                &mut self,
                code_id: usize,
                pc: usize,
                mask: u16,
            ) -> GuardOutcome {
                let max_fails = self.config.max_guard_failures;
                let cj = &mut self.codes[code_id];
                let region_ref = cj.compiled[pc];
                if region_ref == 0 {
                    return GuardOutcome::Pass;
                }
                let region = &mut cj.regions[(region_ref - 1) as usize];
                let expected = region.types.get(&(pc as u32)).copied().unwrap_or(0);
                if expected == 0 || (mask & !expected) == 0 {
                    return GuardOutcome::Pass;
                }
                region.fail_count += 1;
                *region
                    .types
                    .get_mut(&(pc as u32))
                    .expect("expected != 0 means entry exists") |= mask;
                if region.fail_count > max_fails {
                    let (head, end) = (region.head, region.end);
                    cj.blacklisted_heads.insert(head);
                    for p in head..=end {
                        if cj.compiled[p as usize] == region_ref {
                            cj.compiled[p as usize] = 0;
                        }
                    }
                    GuardOutcome::Blacklisted
                } else {
                    GuardOutcome::Deopt
                }
            }

            pub(super) fn on_function_entry(&mut self, code_id: usize) -> Option<usize> {
                if self.config.mode == JitMode::LoopsOnly {
                    return None;
                }
                let threshold = self.config.hot_threshold;
                let cj = &mut self.codes[code_id];
                if cj.function_compiled {
                    return None;
                }
                cj.entry_count += 1;
                if cj.entry_count < threshold {
                    return None;
                }
                cj.function_compiled = true;
                let region_idx = cj.regions.len() as u32 + 1;
                let mut ops = 0usize;
                for slot in cj.compiled.iter_mut() {
                    if *slot == 0 {
                        *slot = region_idx;
                        ops += 1;
                    }
                }
                if ops == 0 {
                    return None;
                }
                cj.regions.push(Region {
                    head: 0,
                    end: cj.compiled.len().saturating_sub(1) as u32,
                    fail_count: 0,
                    types: BTreeMap::new(),
                });
                Some(ops)
            }

            pub(super) fn compiled_regions(&self) -> usize {
                self.codes.iter().map(|c| c.regions.len()).sum()
            }

            pub(super) fn blacklisted_count(&self) -> usize {
                self.codes.iter().map(|c| c.blacklisted_heads.len()).sum()
            }
        }
    }

    /// Asserts that every observable of the dense state equals the model's.
    fn assert_same_state(dense: &JitState, model: &reference::MapJit, ops: &[usize], at: &str) {
        assert_eq!(dense.compiled_regions(), model.compiled_regions(), "{at}");
        assert_eq!(dense.blacklisted_count(), model.blacklisted_count(), "{at}");
        for (code_id, &n) in ops.iter().enumerate() {
            for pc in 0..n {
                assert_eq!(
                    dense.is_compiled(code_id, pc),
                    model.is_compiled(code_id, pc),
                    "{at}: is_compiled({code_id}, {pc})"
                );
                assert_eq!(
                    dense.is_recording(code_id, pc),
                    model.is_recording(code_id, pc),
                    "{at}: is_recording({code_id}, {pc})"
                );
            }
        }
    }

    /// One step of a driven sequence, applied to both implementations;
    /// asserts that the two return the same result.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `on_backedge(code, from, target)`.
        Backedge(usize, usize, usize),
        /// `record_types(code, pc, mask)`.
        Record(usize, usize, u16),
        /// `check_guard(code, pc, mask)`.
        Guard(usize, usize, u16),
        /// `on_function_entry(code)`.
        Entry(usize),
    }

    fn apply(step: Step, dense: &mut JitState, model: &mut reference::MapJit) {
        match step {
            Step::Backedge(code, from, target) => assert_eq!(
                dense.on_backedge(code, from, target),
                model.on_backedge(code, from, target),
                "{step:?}"
            ),
            Step::Record(code, pc, mask) => {
                dense.record_types(code, pc, mask);
                model.record_types(code, pc, mask);
            }
            Step::Guard(code, pc, mask) => assert_eq!(
                dense.check_guard(code, pc, mask),
                model.check_guard(code, pc, mask),
                "{step:?}"
            ),
            Step::Entry(code) => assert_eq!(
                dense.on_function_entry(code),
                model.on_function_entry(code),
                "{step:?}"
            ),
        }
    }

    #[test]
    fn dense_tables_match_the_map_model_on_seeded_sequences() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut compiles, mut deopts, mut blacklists) = (0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = [rng.gen_range(2..24usize), rng.gen_range(2..24usize)];
            let mode = [JitMode::Full, JitMode::LoopsOnly, JitMode::FunctionsOnly]
                [rng.gen_range(0..3usize)];
            let config = JitConfig {
                hot_threshold: rng.gen_range(1..5u32),
                max_guard_failures: rng.gen_range(0..3u32),
                mode,
            };
            // A few loops per code (some nested, some sharing a head) so
            // that back-edges repeat often enough to record and compile.
            let loops: Vec<Vec<(usize, usize)>> = ops
                .iter()
                .map(|&n| {
                    (0..3)
                        .map(|_| {
                            let from = rng.gen_range(1..n);
                            (from, rng.gen_range(0..from))
                        })
                        .collect()
                })
                .collect();
            let mut dense = JitState::new(config, &ops);
            let mut model = reference::MapJit::new(config, &ops);
            for i in 0..300 {
                let code = rng.gen_range(0..2usize);
                let n = ops[code];
                let mask = 1u16 << rng.gen_range(0..4u32);
                let step = match rng.gen_range(0..20u32) {
                    0..=7 => {
                        let (from, target) = loops[code][rng.gen_range(0..3usize)];
                        Step::Backedge(code, from, target)
                    }
                    8..=12 => Step::Record(code, rng.gen_range(0..n), mask),
                    13..=18 => Step::Guard(code, rng.gen_range(0..n), mask),
                    _ => Step::Entry(code),
                };
                apply(step, &mut dense, &mut model);
                assert_same_state(&dense, &model, &ops, &format!("seed {seed} step {i}"));
            }
            compiles += dense.compiled_regions();
            blacklists += dense.blacklisted_count();
            deopts += dense
                .codes
                .iter()
                .flat_map(|c| &c.regions)
                .map(|r| r.fail_count as usize)
                .sum::<usize>();
        }
        // The sequences must reach every path, or agreement proves little.
        assert!(compiles > 200, "compiles {compiles}");
        assert!(deopts > 100, "guard failures {deopts}");
        assert!(blacklists > 20, "blacklists {blacklists}");
    }

    #[test]
    fn function_compile_during_a_loop_recording_never_guards_its_ops() {
        let ops = [10];
        let config = JitConfig {
            hot_threshold: 3,
            max_guard_failures: 0,
            mode: JitMode::Full,
        };
        let mut dense = JitState::new(config, &ops);
        let mut model = reference::MapJit::new(config, &ops);
        let steps = [
            Step::Backedge(0, 8, 2),
            Step::Backedge(0, 8, 2),
            Step::Backedge(0, 8, 2), // starts recording
            Step::Record(0, 5, TypeTag::Int.bit()),
            Step::Entry(0),
            Step::Entry(0),
            Step::Entry(0), // the function region claims every op
            Step::Record(0, 6, TypeTag::Int.bit()),
            Step::Backedge(0, 8, 2), // finishes: 0 ops
        ];
        for step in steps {
            apply(step, &mut dense, &mut model);
        }
        assert_same_state(&dense, &model, &ops, "after the loop region");
        assert_eq!(dense.compiled_regions(), 2);
        // The loop's recorded types are for ops the function region owns,
        // which carries no profile: no mask may fail a guard there.
        for pc in 0..10 {
            for bit in [TypeTag::Float, TypeTag::Str, TypeTag::List] {
                let step = Step::Guard(0, pc, bit.bit());
                apply(step, &mut dense, &mut model);
                assert_eq!(dense.check_guard(0, pc, bit.bit()), GuardOutcome::Pass);
            }
        }
        assert_same_state(&dense, &model, &ops, "after the guards");
    }

    #[test]
    fn blacklisting_a_head_twice_counts_it_once() {
        // Through `JitState` a blacklisted head can never compile again, so
        // the second hit is made on the per-code table directly.
        let mut cj = CodeJit::new(10);
        cj.blacklist(2);
        cj.blacklist(2);
        assert_eq!(cj.blacklisted_heads, 1);
        cj.blacklist(7);
        assert_eq!(cj.blacklisted_heads, 2);

        // And the driven path: a blacklisted loop keeps being hit, through
        // back-edges and guards on its former ops, and stays counted once.
        let ops = [10];
        let config = JitConfig {
            hot_threshold: 2,
            max_guard_failures: 0,
            mode: JitMode::LoopsOnly,
        };
        let mut dense = JitState::new(config, &ops);
        let mut model = reference::MapJit::new(config, &ops);
        let int = TypeTag::Int.bit();
        let mut steps = vec![
            Step::Backedge(0, 8, 2),
            Step::Backedge(0, 8, 2),
            Step::Record(0, 4, int),
            Step::Backedge(0, 8, 2),
            Step::Guard(0, 4, TypeTag::Float.bit()), // blacklists
        ];
        for _ in 0..5 {
            steps.push(Step::Backedge(0, 8, 2));
            steps.push(Step::Guard(0, 4, TypeTag::Str.bit()));
        }
        for step in steps {
            apply(step, &mut dense, &mut model);
        }
        assert_same_state(&dense, &model, &ops, "after repeated hits");
        assert_eq!(dense.blacklisted_count(), 1);
    }

    #[test]
    fn stalled_recording_is_displaced_by_new_hot_loop() {
        let mut j = jit_for(30);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2); // starts recording for loop A
        }
        assert!(j.is_recording(0, 4));
        // Loop B becomes hot; A's recording never finished.
        for _ in 0..2 {
            j.on_backedge(0, 25, 20);
        }
        assert_eq!(j.on_backedge(0, 25, 20), BackedgeEvent::StartRecording);
        assert!(j.is_recording(0, 22));
        assert!(!j.is_recording(0, 4));
    }
}
